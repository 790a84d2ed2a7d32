// Package largescale holds convergence tests beyond the sizes the
// rest of the suite exercises. They exist to pin down the scaling win
// of the activity-tracked round engine: an N=4096 network is far past
// what the exhaustive full-sweep schedule (rules at every peer every
// round, plus a deep-copy snapshot comparison per round for fixed-point
// detection) can finish within a test-timeout budget, while the
// incremental engine settles it in seconds because the frontier
// collapses to the still-active region and quiescence is detected in
// O(1).
package largescale

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/rechord"
	"repro/internal/scaletable"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// record appends a rung to the SCALE_JSON ladder (no-op unless CI
// exports the variable); a write failure is a test failure so a broken
// artifact pipeline is noticed, not silently published empty.
func record(t *testing.T, e scaletable.Entry) {
	t.Helper()
	if err := scaletable.RecordEnv(e); err != nil {
		t.Errorf("recording scale entry: %v", err)
	}
}

func TestN4096ConvergesToIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 convergence skipped with -short")
	}
	const n = 4096
	rng := rand.New(rand.NewSource(4096))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	start := time.Now()
	res, err := sim.RunToStable(context.Background(), nw, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Quiescent() {
		t.Fatal("stable network not quiescent")
	}
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("n=%d converged to wrong state: %v", n, err)
	}
	t.Logf("n=%d: settled in %d rounds, %v", n, res.Rounds, time.Since(start))
	record(t, scaletable.Entry{N: n, Model: "sync", Rounds: res.Rounds, WallSeconds: time.Since(start).Seconds()})

	// Steady state must be free: rounds past the fixed point touch
	// nothing (the full sweep would re-run 4096 peers each time).
	start = time.Now()
	const extra = 1000
	for i := 0; i < extra; i++ {
		nw.Step()
	}
	perRound := time.Since(start) / extra
	t.Logf("quiescent round cost: %v", perRound)
	if nw.FrontierSize() != 0 {
		t.Fatal("quiescent rounds re-dirtied peers")
	}
}

// TestN1024ChurnAbsorbedLocally: a single failure in a quiescent
// N=1024 network must wake only a small neighborhood, not the whole
// ring, and the network must return to the exact ideal state.
func TestN1024ChurnAbsorbedLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("N=1024 churn test skipped with -short")
	}
	const n = 1024
	rng := rand.New(rand.NewSource(1024))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Fail(ids[n/2]); err != nil {
		t.Fatal(err)
	}
	woken := nw.FrontierSize()
	if woken == 0 || woken > n/4 {
		t.Errorf("failure woke %d peers, want a small local neighborhood (0 < woken <= %d)", woken, n/4)
	}
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := rechord.ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
		t.Fatalf("wrong state after failure: %v", err)
	}
	t.Logf("failure woke %d/%d peers", woken, n)
}

// TestAsyncN2048Converges: the event-driven asynchronous scheduler
// settles a large network too — the acceptance bar for the scheduler
// layer. The run goes through sim.RunToStable exactly like the
// synchronous path (the unified scheduler interface), with activation
// probability 0.5 and messages delayed up to 3 steps. Beyond
// convergence to the exact ideal state, quiescent async steps must
// stay frontier-proportional: stepping a settled network re-dirties
// nobody and costs microseconds, not an O(n) rebuild.
func TestAsyncN2048Converges(t *testing.T) {
	if testing.Short() {
		t.Skip("N=2048 async convergence skipped with -short")
	}
	const n = 2048
	rng := rand.New(rand.NewSource(2048))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 3}}, rng)
	start := time.Now()
	res, err := sim.RunToStable(context.Background(), runner, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !runner.Quiescent() {
		t.Fatal("stable async network not quiescent")
	}
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("n=%d async converged to wrong state: %v", n, err)
	}
	t.Logf("n=%d: settled in %d async steps, %v", n, res.Rounds, time.Since(start))
	record(t, scaletable.Entry{N: n, Model: "async", Rounds: res.Rounds, WallSeconds: time.Since(start).Seconds()})

	start = time.Now()
	const extra = 1000
	for i := 0; i < extra; i++ {
		runner.Step()
	}
	perStep := time.Since(start) / extra
	t.Logf("quiescent async step cost: %v", perStep)
	if nw.FrontierSize() != 0 {
		t.Fatal("quiescent async steps re-dirtied peers")
	}
	if nw.Round() != 0 {
		t.Fatalf("async run advanced the synchronous round counter to %d", nw.Round())
	}
}
