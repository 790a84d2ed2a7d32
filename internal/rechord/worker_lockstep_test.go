package rechord_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// The barrier (barrier.go) claims exact worker-count independence:
// Workers=1 and Workers=N must produce identical global state at every
// round boundary, under any churn, in every scheduler. The commit and
// the epilogue are serial in active order at every count, so the claim
// rests on the parallel pass — each peer's deliver, execute and prepare
// on one worker — writing nothing another peer's pass reads. The
// synchronous engine is compared at both counts with
// the reference through the Lockstep harness; the asynchronous
// adversary, whose random schedule the synchronous reference cannot
// shadow, is compared with itself across the two counts — state,
// fingerprint and RNG consumption after every step — with the
// clean-peer invariant checked on both sides. CI runs this file under
// -race at GOMAXPROCS 1 and 4: that no two peers' passes touch the same
// memory with a write is what the race detector proves there.

// netPair applies a membership event to both networks of an asynchronous
// pair, which hold identical peer sets by induction.
type netPair [2]*rechord.Network

func (p netPair) Join(id, c ident.ID) error { return errors.Join(p[0].Join(id, c), p[1].Join(id, c)) }
func (p netPair) Leave(id ident.ID) error   { return errors.Join(p[0].Leave(id), p[1].Leave(id)) }
func (p netPair) Fail(id ident.ID) error    { return errors.Join(p[0].Fail(id), p[1].Fail(id)) }

// runWorkersAsync steps a Workers=1 and a Workers=8 network through the
// same asynchronous schedule and churn script.
func runWorkersAsync(t *testing.T, seed int64, n int, gen topogen.Generator, steps int, events []lockstepEvent) bool {
	t.Helper()
	var nets netPair
	var runs [2]*rechord.AsyncRunner
	for i, workers := range []int{1, 8} {
		rng := rand.New(rand.NewSource(seed))
		nets[i] = gen.Build(topogen.RandomIDs(n, rng), rng, rechord.Config{Workers: workers})
		runs[i] = rechord.NewAsyncRunner(nets[i], rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 3}}, rand.New(rand.NewSource(seed+99)))
	}
	script := lockstepScript{events: events}
	for s := 0; s < steps; s++ {
		if err := script.apply(nets, nets[0].Peers, s); err != nil {
			t.Logf("seed=%d step=%d: event: %v", seed, s, err)
			return false
		}
		for _, a := range runs {
			a.Step()
			rechord.AssertCleanPeersStable(t, a)
			rechord.CheckPurgeMarks(t, a.Network(), fmt.Sprintf("seed=%d step=%d", seed, s+1))
			if a.Quiescent() {
				rechord.CheckDepIndex(t, a.Network(), fmt.Sprintf("seed=%d step=%d", seed, s+1))
			}
		}
		if fa, fb := nets[0].StateFingerprint(nil), nets[1].StateFingerprint(nil); fa != fb {
			t.Logf("seed=%d n=%d gen=%s: fingerprint diverged at step %d: %x vs %x", seed, n, gen.Name, s+1, fa, fb)
			return false
		}
		if !nets[0].TakeSnapshot().Equal(nets[1].TakeSnapshot()) {
			t.Logf("seed=%d n=%d gen=%s: global state diverged at step %d (frontier=%d)", seed, n, gen.Name, s+1, nets[0].FrontierSize())
			return false
		}
	}
	if runs[0].LastChange() != runs[1].LastChange() || runs[0].EventFingerprint() != runs[1].EventFingerprint() {
		t.Logf("seed=%d: last change %d vs %d, event fingerprint %x vs %x — the barrier consumed RNG",
			seed, runs[0].LastChange(), runs[1].LastChange(), runs[0].EventFingerprint(), runs[1].EventFingerprint())
		return false
	}
	return nets[0].Graph().Equal(nets[1].Graph()) && nets[0].ReChordGraph().Equal(nets[1].ReChordGraph())
}

// TestWorkersLockstepChurn is the worker-count equivalence property
// under join/leave/fail/rejoin churn, for the synchronous engine and the
// asynchronous adversary (whose RNG consumption must be byte-identical
// across worker counts).
func TestWorkersLockstepChurn(t *testing.T) {
	gens := []topogen.Generator{topogen.Random(), topogen.Garbage(), topogen.PreStabilized()}
	for _, mode := range []struct {
		name  string
		count int
	}{{"sync", 8}, {"async", 64}} {
		t.Run(mode.name, func(t *testing.T) {
			f := func(seed int64, sizeRaw, genRaw uint8, evRaw [5]uint8) bool {
				n, gen := 4+int(sizeRaw)%12, gens[int(genRaw)%len(gens)]
				events := churnScript(seed, evRaw[:], 4, 9)
				if mode.name == "async" {
					return runWorkersAsync(t, seed, n, gen, 90, events) // activation prob 0.5 stretches convergence
				}
				return runLockstep(t, seed, n, gen, []int{1, 8}, 60, events)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: mode.count}); err != nil {
				t.Error(err)
			}
		})
	}
}
