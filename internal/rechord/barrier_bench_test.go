package rechord

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
)

// barrierBenchRounds fixes the measured window: the first rounds of a
// convergence from the ideal-seeded state, during which (nearly) every
// peer is on the frontier and rewriting its standing contributions —
// exactly the regime the old serial phase 3 dominated. A fixed window
// instead of run-to-quiescence keeps the series comparable across
// engine changes and immune to seed-specific settle tails (some id
// sets ride a flow-settling wave for thousands of rounds — see
// TestSeed4096FlowWave and DESIGN §2; the largescale suites hold the
// convergence proofs).
const barrierBenchRounds = 48

// BenchmarkBarrierCommit pins the split of the barrier between prepare
// (the view/level diff, dependency diffing and planning, summed over the
// workers of the parallel pass) and commit (the serial staged publishes
// and bucket/index rewrite, reported with the emit step as
// commit-ns/batch), under the hot frontier of the ideal-seeded
// transient. The workers=1 series runs everything on the caller, the
// workers=4 series fans the parallel pass over four workers; both commit
// serially. ns/op is the whole window, and the per-batch phase means
// come from the engine's own telemetry so the split is visible in the
// BENCH files next to the wall-clock.
func BenchmarkBarrierCommit(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		for _, bc := range []struct {
			name    string
			workers int
		}{
			{"workers=1", 1},
			{"workers=4", 4},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				var prepNS, commitNS, publishNS, batches float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					nw, _ := idealSeededNet(Config{Workers: bc.workers}, n)
					b.StartTimer()
					for r := 0; r < barrierBenchRounds && !nw.Quiescent(); r++ {
						nw.Step()
					}
					b.StopTimer()
					s := nw.met.Snapshot()
					if s.Batches == 0 || nw.InFlight() == 0 {
						b.Fatalf("n=%d: transient did not run (batches=%d, inflight=%d)", n, s.Batches, nw.InFlight())
					}
					prep, com, pub := s.PhaseNS["prepare"], s.PhaseNS["reroute"], s.PhaseNS["publish"]
					prepNS += prep.Mean * float64(prep.Count)
					commitNS += com.Mean * float64(com.Count)
					publishNS += pub.Mean * float64(pub.Count)
					batches += float64(prep.Count)
					b.StartTimer()
				}
				b.StopTimer()
				if batches > 0 {
					b.ReportMetric(prepNS/batches, "prepare-ns/batch")
					b.ReportMetric(commitNS/batches, "commit-ns/batch")
					b.ReportMetric(publishNS/batches, "publish-ns/batch")
				}
			})
		}
	}
}

// idealSeededNet builds a network holding the exact ideal Re-Chord
// topology for n random identifiers, un-converged: the first Steps run
// the all-peers transient (every peer active, buckets materializing)
// before settling. The seeding matches topogen.PreStabilized, which
// lives upstream of this package.
func idealSeededNet(cfg Config, n int) (*Network, *Ideal) {
	rng := rand.New(rand.NewSource(int64(n)))
	ids := make([]ident.ID, 0, n)
	seen := map[ident.ID]bool{}
	for len(ids) < n {
		id := ident.ID(rng.Uint64())
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	nw := NewNetwork(cfg)
	nw.Reserve(n)
	for _, id := range ids {
		nw.AddPeer(id)
	}
	idl := ComputeIdeal(ids)
	for _, x := range idl.Nodes() {
		for _, y := range idl.Nu(x).Slice() {
			nw.SeedEdge(x, y, graph.Unmarked)
		}
	}
	nodes := idl.Nodes()
	mn, mx := nodes[0], nodes[len(nodes)-1]
	nw.SeedEdge(mx, mn, graph.Ring)
	nw.SeedEdge(mn, mx, graph.Ring)
	return nw, idl
}
