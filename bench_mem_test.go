// Memory-footprint benchmark for the compact-handle core, tracked in
// BENCH_mem.json (make bench-mem): resident bytes per peer of a
// settled network, standing message flows included. The interner's
// slice-addressed layout (dense node/level/view tables, level-indexed
// vnode slices, handle-keyed buckets) replaced the id- and ref-keyed
// hash maps of the original engine; this benchmark is the regression
// guard that keeps the per-peer footprint from creeping back up, and
// the number that decides how large an n fits in one test budget.
package repro

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rechord"
	"repro/internal/ref"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// setCapacity counts the references every virtual node's edge sets
// have room for.
func setCapacity(nw *rechord.Network) int {
	c := 0
	for _, id := range nw.Peers() {
		p := nw.Peer(id)
		for _, l := range p.Levels() {
			v := p.VNode(l)
			c += cap(v.Nu.Slice()) + cap(v.Nr.Slice())
		}
	}
	return c
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkMemoryPerPeer reports bytes/peer of a quiescent network at
// each size. ns/op is dominated by the settle run and is not the
// tracked number; bytes/peer is. set-bytes/peer is the share of it the
// virtual nodes' edge sets hold as capacity, so a regression names the
// sets or everything else (contributions, bucket tables, dependency
// index, the nodes themselves).
//
// The n=65536 rung does not fit the default 10-minute test deadline;
// like the compact scale ladder it skips itself when the binary's
// deadline cannot hold it, and unlocks under a generous -timeout (the
// bench-mem make target) or -timeout=0.
func BenchmarkMemoryPerPeer(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 16384 {
				// testing.B has no Deadline, so read the binary's
				// -test.timeout directly; the go tool enforces it from
				// outside the process too, so skipping is the only
				// honest move when the budget cannot hold the rung.
				if f := flag.Lookup("test.timeout"); f != nil {
					if d, err := time.ParseDuration(f.Value.String()); err == nil && d > 0 && d < 30*time.Minute {
						b.Skipf("n=%d needs a long settle run but -timeout is %v; rerun with -timeout=60m (or -timeout=0) to include it", n, d)
					}
				}
			}
			var perPeer, setPerPeer float64
			for i := 0; i < b.N; i++ {
				base := heapAlloc()
				rng := rand.New(rand.NewSource(int64(n)))
				ids := topogen.RandomIDs(n, rng)
				nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
				if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
					b.Fatal(err)
				}
				perPeer = float64(heapAlloc()-base) / float64(n)
				setPerPeer = float64(setCapacity(nw)*int(unsafe.Sizeof(ref.Ref{}))) / float64(n)
			}
			b.ReportMetric(perPeer, "bytes/peer")
			b.ReportMetric(setPerPeer, "set-bytes/peer")
		})
	}
}
