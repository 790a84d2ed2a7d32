package rechord_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// TestAsyncConvergesFromRandomStates: under random activation and
// message delays, the network still reaches the legal topology from
// weakly connected initial states.
func TestAsyncConvergesFromRandomStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  rechord.AsyncConfig
	}{
		{"half-activation", rechord.AsyncConfig{ActivationProb: 0.5}},
		{"delayed-messages", rechord.AsyncConfig{ActivationProb: 1.0, Delay: rechord.UniformDelay{Max: 4}}},
		{"slow-and-delayed", rechord.AsyncConfig{ActivationProb: 0.3, Delay: rechord.UniformDelay{Max: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(91))
			ids := topogen.RandomIDs(16, rng)
			nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 1})
			runner := rechord.NewAsyncRunner(nw, tc.cfg, rng)
			idl := rechord.ComputeIdeal(ids)
			steps, ok := runner.RunUntilLegal(idl, 20*sim.DefaultMaxRounds(len(ids)), 4)
			if !ok {
				t.Fatalf("async run did not reach the legal state in %d steps", steps)
			}
			t.Logf("legal state after %d async steps (%d pending msgs)", steps, runner.InFlight())
		})
	}
}

// TestAsyncOneShotInputDoesNotSettle is the run of the asynchronous
// figure (experiments seed 1, n = 45, activation 0.25, uniform delay
// 1..2, rep 14) that used to quiesce one ring edge short of the legal
// state: a peer whose run consumed one-shot messages and happened to
// reproduce its previous state and output settled, although a re-run
// without that input produces something else. Such a peer stays on the
// frontier, so the first quiescence is the legal state.
func TestAsyncOneShotInputDoesNotSettle(t *testing.T) {
	const n, rep = 45, 14
	rng := rand.New(rand.NewSource(1 + n*1_000_003 + rep*7919))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.Random().Build(ids, rng, rechord.Config{})
	runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.25, Delay: rechord.UniformDelay{Max: 2}}, rng)
	if _, err := sim.RunToStable(context.Background(), runner, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Errorf("first quiescence (step %d) is not the legal state: %v", runner.Time(), err)
	}
	rechord.AssertCleanPeersStable(t, runner)
}

// TestAsyncDegeneratesToSynchronous: activation 1.0 with delay 1
// follows the synchronous schedule, so it must converge in a
// comparable number of steps.
func TestAsyncDegeneratesToSynchronous(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	ids := topogen.RandomIDs(12, rng)

	syncNW := topogen.Line().Build(ids, rand.New(rand.NewSource(93)), rechord.Config{Workers: 1})
	res, err := sim.RunToStable(context.Background(), syncNW, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	asyncNW := topogen.Line().Build(ids, rand.New(rand.NewSource(93)), rechord.Config{Workers: 1})
	runner := rechord.NewAsyncRunner(asyncNW, rechord.AsyncConfig{ActivationProb: 1.0}, rng)
	steps, ok := runner.RunUntilLegal(rechord.ComputeIdeal(ids), 10*sim.DefaultMaxRounds(len(ids)), 1)
	if !ok {
		t.Fatal("degenerate async did not converge")
	}
	if steps > 4*res.Rounds+16 {
		t.Errorf("degenerate async took %d steps vs %d synchronous rounds", steps, res.Rounds)
	}
}

// TestAsyncChurn: a join and a failure under asynchronous execution
// still land in the legal state for the surviving peers.
func TestAsyncChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ids := topogen.RandomIDs(10, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{Workers: 1})
	runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.6, Delay: rechord.UniformDelay{Max: 2}}, rng)
	if _, ok := runner.RunUntilLegal(rechord.ComputeIdeal(ids), 4000, 4); !ok {
		t.Fatal("async settling failed")
	}
	joiner := topogen.RandomIDs(1, rng)[0]
	if err := nw.Join(joiner, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := nw.Fail(ids[3]); err != nil {
		t.Fatal(err)
	}
	if steps, ok := runner.RunUntilLegal(rechord.ComputeIdeal(nw.Peers()), 8000, 4); !ok {
		t.Fatalf("async churn did not restabilize in %d steps", steps)
	}
}

// TestAsyncLockstepMatchesSyncUnderChurn is the degenerate-equivalence
// property in its strongest form: with ActivationProb 1 and every
// delay 1, the event-driven scheduler must reproduce the synchronous
// engine's global state — edge sets, rl/rr, and every pending message
// — after every single step, including steps at which peers join,
// leave gracefully, or crash.
func TestAsyncLockstepMatchesSyncUnderChurn(t *testing.T) {
	for _, gen := range []topogen.Generator{topogen.Random(), topogen.Garbage(), topogen.PreStabilized()} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed ^ 0xA51C))
			n := 4 + int(seed)%9
			build := func() *rechord.Network {
				r := rand.New(rand.NewSource(seed))
				ids := topogen.RandomIDs(n, r)
				return gen.Build(ids, r, rechord.Config{Workers: 1})
			}
			syncNW := build()
			runner := rechord.NewAsyncRunner(build(),
				rechord.AsyncConfig{ActivationProb: 1}, rand.New(rand.NewSource(7)))
			asyncNW := runner.Network()

			churnAt := map[int]int{9: 0, 21: 1, 33: 2} // step -> event kind
			fresh := ident.ID(rng.Uint64() | 1)
			victim := rng.Intn(64)
			apply := func(nw *rechord.Network, kind int) error {
				peers := nw.Peers()
				switch {
				case kind == 0 || len(peers) < 3:
					return nw.Join(fresh, peers[victim%len(peers)])
				case kind == 1:
					return nw.Leave(peers[victim%len(peers)])
				default:
					return nw.Fail(peers[victim%len(peers)])
				}
			}
			for s := 0; s < 60; s++ {
				if kind, ok := churnAt[s]; ok {
					if err := apply(syncNW, kind); err != nil {
						t.Fatalf("gen=%s seed=%d: sync churn: %v", gen.Name, seed, err)
					}
					if err := apply(asyncNW, kind); err != nil {
						t.Fatalf("gen=%s seed=%d: async churn: %v", gen.Name, seed, err)
					}
				}
				syncNW.Step()
				runner.Step()
				if !syncNW.TakeSnapshot().Equal(asyncNW.TakeSnapshot()) {
					t.Fatalf("gen=%s seed=%d n=%d: global state diverged at step %d",
						gen.Name, seed, n, s+1)
				}
			}
			if !syncNW.Graph().Equal(asyncNW.Graph()) {
				t.Fatalf("gen=%s seed=%d: Graph() diverged", gen.Name, seed)
			}
		}
	}
}

// TestAsyncDeterminism: the same seed and configuration produce the
// same event order (fingerprinted), the same step counts, and the same
// final state — including under churn and delayed messages. A
// different seed produces a different schedule.
func TestAsyncDeterminism(t *testing.T) {
	run := func(seed int64) (*rechord.AsyncRunner, uint64) {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(14, rng)
		nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 2})
		runner := rechord.NewAsyncRunner(nw,
			rechord.AsyncConfig{ActivationProb: 0.4, Delay: rechord.UniformDelay{Max: 3}}, rand.New(rand.NewSource(seed+1)))
		for s := 0; s < 160; s++ {
			if s == 30 {
				if err := nw.Join(ident.ID(0x7777777777777777), ids[0]); err != nil {
					t.Fatal(err)
				}
			}
			if s == 70 {
				if err := nw.Fail(ids[5]); err != nil {
					t.Fatal(err)
				}
			}
			runner.Step()
		}
		return runner, runner.EventFingerprint()
	}
	a1, fp1 := run(41)
	a2, fp2 := run(41)
	if fp1 != fp2 {
		t.Fatalf("same seed, different event order: %016x vs %016x", fp1, fp2)
	}
	if a1.Time() != a2.Time() || a1.InFlight() != a2.InFlight() {
		t.Fatalf("same seed, different telemetry: steps %d/%d inflight %d/%d",
			a1.Time(), a2.Time(), a1.InFlight(), a2.InFlight())
	}
	if !a1.Network().TakeSnapshot().Equal(a2.Network().TakeSnapshot()) {
		t.Fatal("same seed, different final state")
	}
	if _, fp3 := run(42); fp3 == fp1 {
		t.Fatal("different seeds produced the identical event order")
	}
}

// TestAsyncDelayModels: convergence to the ideal topology holds under
// every delay model, including heavy tails and per-link latency maps.
func TestAsyncDelayModels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay rechord.DelayModel
	}{
		{"geometric", rechord.GeometricDelay{P: 0.5, Max: 12}},
		{"pareto-heavy-tail", rechord.ParetoDelay{Alpha: 1.5, Max: 24}},
		{"per-link", rechord.LinkDelay{Fn: func(from, to ident.ID) int {
			return 1 + int((uint64(from)^uint64(to))%5)
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(611))
			ids := topogen.RandomIDs(16, rng)
			nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 1})
			runner := rechord.NewAsyncRunner(nw,
				rechord.AsyncConfig{ActivationProb: 0.5, Delay: tc.delay}, rng)
			res, err := sim.RunToStable(context.Background(), runner, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
				t.Fatalf("converged to wrong state: %v", err)
			}
			t.Logf("stable after %d async steps", res.Rounds)
		})
	}
}

// TestAsyncEpochsTrackStateChanges: the asynchronous scheduler stamps
// peer change epochs only when a peer's state actually changes —
// activations that are no-ops must not bump the clock, so epoch-keyed
// routing caches stay warm under async exactly as they do under the
// round engine (the original implementation stamped every activated
// peer every step, keeping caches permanently cold).
func TestAsyncEpochsTrackStateChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ids := topogen.RandomIDs(12, rng)
	nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 1})
	runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.6, Delay: rechord.UniformDelay{Max: 3}}, rng)
	if _, err := sim.RunToStable(context.Background(), runner, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if nw.EpochClock() == 0 {
		t.Fatal("convergence bumped no epochs")
	}
	clock := nw.EpochClock()
	round := nw.Round()
	for s := 0; s < 200; s++ {
		runner.Step()
	}
	if got := nw.EpochClock(); got != clock {
		t.Errorf("steady-state async steps bumped the epoch clock: %d -> %d (caches would run cold)", clock, got)
	}
	if got := nw.Round(); got != round {
		t.Errorf("async steps advanced the synchronous round counter: %d -> %d", round, got)
	}
	if runner.Time() < 200 {
		t.Errorf("Time = %d, want the async steps counted separately", runner.Time())
	}
}

func TestAsyncConfigDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	nw := rechord.NewNetwork(rechord.Config{})
	nw.AddPeer(1)
	runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: -1}, rng)
	// Defaults applied; stepping must not panic and must count.
	runner.Step()
	if runner.Time() != 1 {
		t.Errorf("Time = %d, want 1", runner.Time())
	}
	if runner.InFlight() < 0 {
		t.Error("InFlight negative")
	}
	if runner.Network() != nw {
		t.Error("Network accessor broken")
	}
}
