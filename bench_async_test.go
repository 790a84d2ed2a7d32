// Benchmarks for the asynchronous scheduler layer, tracked across PRs
// in BENCH_async.json (make bench-async). The headline claim: the
// event-driven runner's steady-state step is frontier-proportional —
// a quiescent step touches the (empty) event queue and nothing else,
// where the original implementation rebuilt the level and published-
// state caches and scanned every peer on every step, an O(n) floor
// that made large-n async experiments infeasible.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rechord"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// asyncSteady builds a stable network of n peers wrapped in an
// asynchronous runner that has been run to quiescence.
func asyncSteady(b *testing.B, n int) *rechord.AsyncRunner {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 3}}, rng)
	if _, err := sim.RunToStable(context.Background(), runner, sim.Options{}); err != nil {
		b.Fatal(err)
	}
	return runner
}

// BenchmarkAsyncStep measures one asynchronous step at steady state
// for n=2048 and n=4096: the cost must not grow with n (no wholesale
// rebuild, no full peer scan — only the frontier, which is empty).
func BenchmarkAsyncStep(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		b.Run(fmt.Sprintf("steady/n=%d", n), func(b *testing.B) {
			runner := asyncSteady(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner.Step()
			}
			b.StopTimer()
			if runner.Network().FrontierSize() != 0 {
				b.Fatal("steady-state async steps re-dirtied peers")
			}
		})
	}
}

// BenchmarkAsyncChurnRecovery measures absorbing one crash failure in
// a quiescent n=1024 network under the asynchronous scheduler: only
// the failed peer's neighborhood wakes, and the repair runs at
// frontier-proportional cost until quiescence.
func BenchmarkAsyncChurnRecovery(b *testing.B) {
	const n = 1024
	var steps float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(int64(i)))
		ids := topogen.RandomIDs(n, rng)
		nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
		runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 2}}, rng)
		if _, err := sim.RunToStable(context.Background(), runner, sim.Options{}); err != nil {
			b.Fatal(err)
		}
		victim := ids[rng.Intn(len(ids))]
		b.StartTimer()
		if err := nw.Fail(victim); err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunToStable(context.Background(), runner, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		steps += float64(res.Rounds)
	}
	b.ReportMetric(steps/float64(b.N), "steps-to-repair")
}

// BenchmarkAsyncConvergence measures full convergence from random
// weakly connected states under the asynchronous adversary, reporting
// the steps-to-stable alongside the wall time — the async counterpart
// of the paper's Figure 6.
func BenchmarkAsyncConvergence(b *testing.B) {
	for _, n := range []int{32, 105} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var steps float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rng := rand.New(rand.NewSource(int64(i)))
				ids := topogen.RandomIDs(n, rng)
				nw := topogen.Random().Build(ids, rng, rechord.Config{})
				runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 2}}, rng)
				b.StartTimer()
				res, err := sim.RunToStable(context.Background(), runner, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				steps += float64(res.Rounds)
			}
			b.ReportMetric(steps/float64(b.N), "steps-to-stable")
		})
	}
}
