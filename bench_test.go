// Benchmarks regenerating the paper's evaluation, one per figure and
// theorem-level claim (see DESIGN.md's experiment index). Each bench
// reports the paper's metric as a custom unit alongside ns/op, so
// `go test -bench=.` reproduces the shape of every table and figure:
//
//	BenchmarkFig5Convergence/n=45  ... rounds/op, normal-edges, connection-edges, virtual-nodes
//	BenchmarkFig6Rounds/n=45       ... rounds-to-stable, rounds-to-almost-stable
//	BenchmarkFig7EdgeDensity/n=45  ... total-nodes, total-edges
//	BenchmarkJoin/n=45             ... recovery rounds after one join
//	...
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chord"
	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topogen"
	"repro/internal/workload"
)

// paperSizes is the sweep of Section 5.
var paperSizes = []int{5, 15, 25, 35, 45, 65, 85, 105}

// benchSizes trims the sweep so the full bench suite stays tractable;
// pass -bench-full via -args to use the paper's full range.
var benchSizes = []int{5, 15, 45, 105}

func buildRandom(n int, seed int64, workers int) (*rechord.Network, []ident.ID) {
	rng := rand.New(rand.NewSource(seed))
	ids := topogen.RandomIDs(n, rng)
	return topogen.Random().Build(ids, rng, rechord.Config{Workers: workers}), ids
}

// BenchmarkFig5Convergence regenerates Figure 5: edge and node counts
// of the stabilized network per peer count.
func BenchmarkFig5Convergence(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var normal, conn, virt, rounds float64
			for i := 0; i < b.N; i++ {
				nw, _ := buildRandom(n, int64(i), 0)
				res, err := sim.RunToStable(context.Background(), nw, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				final := sim.Measure(nw)
				normal += float64(final.NormalEdges())
				conn += float64(final.ConnectionEdges)
				virt += float64(final.VirtualNodes)
				rounds += float64(res.Rounds)
			}
			div := float64(b.N)
			b.ReportMetric(normal/div, "normal-edges")
			b.ReportMetric(conn/div, "connection-edges")
			b.ReportMetric(virt/div, "virtual-nodes")
			b.ReportMetric(rounds/div, "rounds")
		})
	}
}

// BenchmarkFig6Rounds regenerates Figure 6: rounds to the stable and
// almost-stable states.
func BenchmarkFig6Rounds(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var stable, almost float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				ids := topogen.RandomIDs(n, rng)
				nw := topogen.Random().Build(ids, rng, rechord.Config{})
				idl := rechord.ComputeIdeal(ids)
				res, err := sim.RunToStable(context.Background(), nw, sim.Options{Ideal: idl})
				if err != nil {
					b.Fatal(err)
				}
				stable += float64(res.Rounds)
				almost += float64(res.AlmostStableRound)
			}
			b.ReportMetric(stable/float64(b.N), "rounds-to-stable")
			b.ReportMetric(almost/float64(b.N), "rounds-to-almost-stable")
		})
	}
}

// BenchmarkFig7EdgeDensity regenerates Figure 7: total edges against
// total nodes in the final graph.
func BenchmarkFig7EdgeDensity(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var nodes, edges float64
			for i := 0; i < b.N; i++ {
				nw, _ := buildRandom(n, int64(i), 0)
				if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
					b.Fatal(err)
				}
				final := sim.Measure(nw)
				nodes += float64(final.TotalNodes())
				edges += float64(final.TotalEdges())
			}
			b.ReportMetric(nodes/float64(b.N), "total-nodes")
			b.ReportMetric(edges/float64(b.N), "total-edges")
		})
	}
}

// BenchmarkConvergenceShapes measures Theorem 1.1 across adversarial
// initial topologies.
func BenchmarkConvergenceShapes(b *testing.B) {
	for _, gen := range topogen.All() {
		b.Run(fmt.Sprintf("%s/n=45", gen.Name), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				ids := topogen.RandomIDs(45, rng)
				nw := gen.Build(ids, rng, rechord.Config{})
				res, err := sim.RunToStable(context.Background(), nw, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Rounds)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
		})
	}
}

// BenchmarkJoin measures Theorem 4.1: recovery after an isolated join
// into a stable network.
func BenchmarkJoin(b *testing.B) {
	benchChurn(b, "join")
}

// BenchmarkLeave measures Theorem 4.2 for graceful departures.
func BenchmarkLeave(b *testing.B) {
	benchChurn(b, "leave")
}

// BenchmarkFail measures Theorem 4.2 for crash failures.
func BenchmarkFail(b *testing.B) {
	benchChurn(b, "fail")
}

func benchChurn(b *testing.B, kind churn.Kind) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rng := rand.New(rand.NewSource(int64(i)))
				nw, ids, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{})
				if err != nil {
					b.Fatal(err)
				}
				ev := churn.Event{Kind: kind}
				if kind == "join" {
					ev.ID = ident.ID(rng.Uint64() | 1)
					ev.Contact = ids[rng.Intn(len(ids))]
				} else {
					ev.ID = ids[rng.Intn(len(ids))]
				}
				b.StartTimer()
				rec, err := churn.Apply(context.Background(), nw, ev, 0)
				if err != nil || !rec.Stable {
					b.Fatalf("%v (stable=%v)", err, rec.Stable)
				}
				rounds += float64(rec.Rounds)
			}
			b.ReportMetric(rounds/float64(b.N), "recovery-rounds")
		})
	}
}

// BenchmarkFact21Check measures the Chord-subgraph verification of
// Fact 2.1 on a converged network.
func BenchmarkFact21Check(b *testing.B) {
	nw, ids := buildRandom(45, 1, 0)
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		b.Fatal(err)
	}
	idl := rechord.ComputeIdeal(ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg := idl.ChordGraph()
		rg := nw.ReChordGraph()
		direct := 0
		for _, e := range cg.AllEdges() {
			if rg.HasEdge(e.From, e.To, e.Kind) {
				direct++
			}
		}
		if direct == 0 {
			b.Fatal("no chord edges found")
		}
	}
}

// BenchmarkLookup measures Chord-emulated lookups over the stable
// network (Section 1.1's O(log n) routing).
func BenchmarkLookup(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			nw, ids, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{})
			if err != nil {
				b.Fatal(err)
			}
			var hops float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, path, err := routing.Route(nw, ids[i%len(ids)], ident.ID(rng.Uint64()))
				if err != nil {
					b.Fatal(err)
				}
				hops += float64(len(path) - 1)
			}
			b.ReportMetric(hops/float64(b.N), "hops")
		})
	}
}

// BenchmarkChordBaselineLookup measures the classic Chord baseline's
// lookup for comparison with BenchmarkLookup.
func BenchmarkChordBaselineLookup(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ids := topogen.RandomIDs(n, rng)
			s := chord.BuildCorrect(ids)
			var hops float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, h, err := s.FindSuccessor(ids[i%len(ids)], ident.ID(rng.Uint64()))
				if err != nil {
					b.Fatal(err)
				}
				hops += float64(h)
			}
			b.ReportMetric(hops/float64(b.N), "hops")
		})
	}
}

// BenchmarkTableLookup measures table-based Chord lookups at n=1024,
// cached (routing.Cache, tables kept level by epoch) against the uncached
// baseline that re-derives every hop's table via TableOf — the
// serving-layer hot path internal/workload rides on. bench-lookups
// records both in BENCH_lookups.json; the cached side must stay >= 5x
// the uncached throughput.
func BenchmarkTableLookup(b *testing.B) {
	const n = 1024
	nw := steadyNet(b, n)
	ids := nw.Peers()
	rng := rand.New(rand.NewSource(1))
	cache := routing.NewCache(nw)
	route := func(b *testing.B, via func(from, key ident.ID) (ident.ID, int, error)) {
		var hops float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, h, err := via(ids[rng.Intn(len(ids))], ident.ID(rng.Uint64()))
			if err != nil {
				b.Fatal(err)
			}
			hops += float64(h)
		}
		b.ReportMetric(hops/float64(b.N), "hops")
	}
	b.Run(fmt.Sprintf("uncached/n=%d", n), func(b *testing.B) {
		route(b, func(from, key ident.ID) (ident.ID, int, error) {
			return routing.RouteUncached(nw, from, key)
		})
	})
	b.Run(fmt.Sprintf("cached/n=%d", n), func(b *testing.B) {
		route(b, cache.Resolve)
	})
}

// BenchmarkWorkload measures the full serving stack — concurrent
// workers, sharded store, routing over the published view — reporting
// the latency percentiles and mean hops the acceptance criteria track:
// on a stable network, and (the churn row) while membership events are
// repaired under the traffic, where throughput is what the clients get
// done beside the stepping engine. The churn row owns its network,
// because its runs change the membership.
func BenchmarkWorkload(b *testing.B) {
	const n = 256
	for _, row := range []struct {
		name, dist  string
		ops, events int
	}{
		{"uniform", workload.DistUniform, 5000, 0},
		{"zipf", workload.DistZipf, 5000, 0},
		{"zipf-churn", workload.DistZipf, 40000, 2},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", row.name, n), func(b *testing.B) {
			var nw *rechord.Network
			if row.events == 0 {
				nw = steadyNet(b, n)
			} else {
				var err error
				if nw, _, err = churn.StableNetwork(context.Background(), n, rand.New(rand.NewSource(1)), rechord.Config{}); err != nil {
					b.Fatal(err)
				}
			}
			var p50, p99, hops, tput float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(context.Background(), nw, workload.Config{
					Workers:      8,
					Ops:          row.ops,
					Keyspace:     2048,
					Preload:      1024,
					Distribution: row.dist,
					Seed:         int64(i + 1),
					Churn:        workload.ChurnConfig{Events: row.events},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Errors > 0 {
					b.Fatalf("%d operations failed", res.Errors)
				}
				p50 += res.Latency.Percentile(50)
				p99 += res.Latency.Percentile(99)
				hops += res.Hops.Mean()
				tput += res.Throughput
			}
			div := float64(b.N)
			b.ReportMetric(p50/div, "p50-ns")
			b.ReportMetric(p99/div, "p99-ns")
			b.ReportMetric(hops/div, "mean-hops")
			b.ReportMetric(tput/div/1000, "kops/s")
		})
	}
}

// BenchmarkRound measures the cost of a single synchronous round at
// steady state, serial vs. parallel — the engine's hot path.
func BenchmarkRound(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(fmt.Sprintf("%s/n=105", name), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			nw, _, err := churn.StableNetwork(context.Background(), 105, rng, rechord.Config{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.Step()
			}
		})
	}
}

// steadyCache shares expensive steady-state setups across the bench
// functions of one run.
var steadyCache = map[int]*rechord.Network{}

// steadyNet returns a network of n peers run to its fixed point.
func steadyNet(b *testing.B, n int) *rechord.Network {
	if nw, ok := steadyCache[n]; ok {
		return nw
	}
	rng := rand.New(rand.NewSource(1))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		b.Fatal(err)
	}
	steadyCache[n] = nw
	return nw
}

// BenchmarkStepSteadyState measures the engine's hot path — one
// synchronous round at steady state. This is the benchmark bench-json
// records across PRs: a quiescent round must stay a counter increment,
// allocation-free and flat in n. (The "incremental" name segment dates
// from when a full-sweep twin ran beside it; the gated baselines keep
// it.)
func BenchmarkStepSteadyState(b *testing.B) {
	for _, n := range []int{512, 2048} {
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			nw := steadyNet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.Step()
			}
		})
	}
}

// BenchmarkChurnRecoveryLarge measures absorbing one crash failure in
// a quiescent N=1024 network — the incremental engine wakes only the
// failed peer's neighborhood.
func BenchmarkChurnRecoveryLarge(b *testing.B) {
	const n = 1024
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(int64(i)))
		ids := topogen.RandomIDs(n, rng)
		nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
		if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
			b.Fatal(err)
		}
		victim := ids[rng.Intn(len(ids))]
		b.StartTimer()
		if err := nw.Fail(victim); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConverge is the work-path ledger row for a fat frontier: 320
// peers from a random weakly connected graph to the fixed point, the
// shape of the end-to-end `converge` workload. Workers: 1, so allocs/op,
// B/op, activations/op (peer rule executions, the work itself) and the
// commit's work, bucket-ops/op and dep-deltas/op, repeat exactly and the
// `work` group can gate them.
func BenchmarkConverge(b *testing.B) {
	b.Run("n=320", func(b *testing.B) {
		b.ReportAllocs()
		var acts, ops, deps uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nw, _ := buildRandom(320, int64(i), 1)
			b.StartTimer()
			if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
				b.Fatal(err)
			}
			m := nw.Obs()
			acts, ops, deps = acts+m.Activated.Value(), ops+m.BucketOps.Value(), deps+m.DepDeltas.Value()
		}
		b.ReportMetric(float64(acts)/float64(b.N), "activations/op")
		b.ReportMetric(float64(ops)/float64(b.N), "bucket-ops/op")
		b.ReportMetric(float64(deps)/float64(b.N), "dep-deltas/op")
	})
}

// BenchmarkRepairCycle is the work-path ledger row for a thin frontier:
// a join, a graceful leave and a crash on a stable n=512 network, each
// run to the fixed point — the shape of the end-to-end `repair`
// workload. Workers: 1 for repeatable allocation, activation, bucket-op
// and dep-delta counts.
func BenchmarkRepairCycle(b *testing.B) {
	b.Run("n=512", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		nw, _, err := churn.StableNetwork(context.Background(), 512, rng, rechord.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		m := nw.Obs()
		acts, ops, deps := m.Activated.Value(), m.BucketOps.Value(), m.DepDeltas.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, kind := range []churn.Kind{churn.Join, churn.Leave, churn.Fail} {
				peers := nw.Peers()
				ev := churn.Event{Kind: kind, ID: peers[rng.Intn(len(peers))]}
				if kind == churn.Join {
					ev.ID, ev.Contact = ident.ID(rng.Uint64()|1), ev.ID
				}
				if rec, err := churn.Apply(context.Background(), nw, ev, 0); err != nil || !rec.Stable {
					b.Fatalf("%s: %v (stable=%v)", kind, err, rec.Stable)
				}
			}
		}
		b.ReportMetric(float64(m.Activated.Value()-acts)/float64(b.N), "activations/op")
		b.ReportMetric(float64(m.BucketOps.Value()-ops)/float64(b.N), "bucket-ops/op")
		b.ReportMetric(float64(m.DepDeltas.Value()-deps)/float64(b.N), "dep-deltas/op")
	})
}

// TestPaperSizesCovered keeps the full sweep definition compiled and
// documents which sizes the paper used.
func TestPaperSizesCovered(t *testing.T) {
	if len(paperSizes) != 8 || paperSizes[0] != 5 || paperSizes[len(paperSizes)-1] != 105 {
		t.Fatalf("paper sweep wrong: %v", paperSizes)
	}
	for _, n := range benchSizes {
		found := false
		for _, p := range paperSizes {
			if n == p {
				found = true
			}
		}
		if !found {
			t.Errorf("bench size %d not in the paper's sweep", n)
		}
	}
}
