package rechord

import (
	"fmt"
	"testing"

	"repro/internal/ident"
	"repro/internal/ref"
)

// BenchmarkWakeDependents pins the tentpole property of the inverted
// dependency index: the cost of waking the dependents of a single
// changed peer must not scale with n. The "indexed" series is the
// production path (wakeDependents) and should be flat across the two
// sizes; the "scan" series is the old full-peer sweep kept as the
// equivalence baseline, and grows linearly — the gap is what the index
// buys every barrier of every large-scale run.

// settledBenchNet builds a pre-stabilized network (ideal topology
// seeded directly, as topogen.PreStabilized does — the generator
// itself lives upstream of this package) and runs it to quiescence.
var settledBenchNets = map[int]*Network{}

func settledBenchNet(b *testing.B, n int) *Network {
	if nw, ok := settledBenchNets[n]; ok {
		return nw
	}
	nw, idl := idealSeededNet(Config{Workers: 1}, n)
	for r := 0; r < 200 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		b.Fatalf("pre-stabilized n=%d did not quiesce", n)
	}
	if err := idl.Matches(nw); err != nil {
		b.Fatalf("n=%d settled to wrong state: %v", n, err)
	}
	settledBenchNets[n] = nw
	return nw
}

// unmarkFrontier reverts the dirty marks a benchmarked wake made, so
// every iteration starts from the same quiescent state.
func (nw *Network) unmarkFrontier() {
	for _, slot := range nw.frontier {
		if n := nw.pt.nodes[slot]; n != nil {
			n.dirty = false
		}
	}
	nw.frontier = nw.frontier[:0]
}

func BenchmarkWakeDependents(b *testing.B) {
	for _, n := range []int{2048, 8192} {
		nw := settledBenchNet(b, n)
		victim := nw.Peers()[n/2]
		owners := []ident.ID{victim}
		refs := []ref.Ref{ref.Real(victim)}
		ownerSet, refSet := setOf(owners), setOf(refs)

		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw.wakeDependents(owners, refs)
				nw.unmarkFrontier()
			}
		})

		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf []uint32
			for i := 0; i < b.N; i++ {
				buf = nw.wakeSetScan(ownerSet, refSet, buf[:0])
			}
		})
	}
}
