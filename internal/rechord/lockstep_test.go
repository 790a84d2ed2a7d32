package rechord_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// The incremental (activity-tracked) engine claims exact equivalence
// with the exhaustive full-sweep schedule: for any seed topology and
// any churn, the round-by-round global states — edge sets, rl/rr, and
// pending messages, hence the Graph()/ReChordGraph() exports — are
// identical. These tests execute both engines in lockstep and compare
// after every single round.

// lockstepEvent is one membership change applied to both engines at
// the same round.
type lockstepEvent struct {
	round   int
	kind    int // 0 join, 1 leave, 2 fail
	fresh   ident.ID
	victim  int // index into the peer list at event time
	contact int
}

func runLockstep(t *testing.T, seed int64, n int, gen topogen.Generator, workers, rounds int, events []lockstepEvent) bool {
	t.Helper()
	build := func(cfg rechord.Config) *rechord.Network {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(n, rng)
		return gen.Build(ids, rng, cfg)
	}
	inc := build(rechord.Config{Workers: workers})
	full := build(rechord.Config{Workers: workers, FullSweep: true})

	apply := func(nw *rechord.Network, ev lockstepEvent) error {
		peers := nw.Peers()
		switch {
		case ev.kind == 0 || len(peers) < 3:
			return nw.Join(ev.fresh, peers[ev.contact%len(peers)])
		case ev.kind == 1:
			return nw.Leave(peers[ev.victim%len(peers)])
		default:
			return nw.Fail(peers[ev.victim%len(peers)])
		}
	}

	for r := 0; r < rounds; r++ {
		for _, ev := range events {
			if ev.round == r {
				if err := apply(inc, ev); err != nil {
					t.Logf("seed=%d round=%d: inc event: %v", seed, r, err)
					return false
				}
				if err := apply(full, ev); err != nil {
					t.Logf("seed=%d round=%d: full event: %v", seed, r, err)
					return false
				}
			}
		}
		inc.Step()
		full.Step()
		if !inc.TakeSnapshot().Equal(full.TakeSnapshot()) {
			t.Logf("seed=%d n=%d gen=%s workers=%d: global state diverged at round %d (frontier=%d)",
				seed, n, gen.Name, workers, r+1, inc.FrontierSize())
			return false
		}
		if !inc.Graph().Equal(full.Graph()) {
			t.Logf("seed=%d n=%d gen=%s workers=%d: Graph() diverged at round %d",
				seed, n, gen.Name, workers, r+1)
			return false
		}
	}
	if !inc.ReChordGraph().Equal(full.ReChordGraph()) {
		t.Logf("seed=%d n=%d gen=%s workers=%d: ReChordGraph() diverged", seed, n, gen.Name, workers)
		return false
	}
	return true
}

// TestLockstepIncrementalMatchesFullSweep is the equivalence property
// over random topologies without churn, for serial and parallel
// execution alike. The round budget runs well past stabilization, so
// the quiescent schedule (empty frontier, identity rounds) is compared
// against full sweeps over the fixed point too.
func TestLockstepIncrementalMatchesFullSweep(t *testing.T) {
	gens := topogen.All()
	f := func(seed int64, sizeRaw, genRaw, workerRaw uint8) bool {
		n := 2 + int(sizeRaw)%14
		gen := gens[int(genRaw)%len(gens)]
		workers := 1 + 3*(int(workerRaw)%2) // 1 or 4
		return runLockstep(t, seed, n, gen, workers, 60, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLockstepUnderChurn interleaves joins, graceful leaves and crash
// failures at fixed rounds — including mid-convergence and after the
// fixed point — and demands the engines stay identical throughout.
func TestLockstepUnderChurn(t *testing.T) {
	gens := []topogen.Generator{topogen.Random(), topogen.Garbage(), topogen.PreStabilized()}
	f := func(seed int64, sizeRaw, genRaw, workerRaw uint8, evRaw [4]uint8) bool {
		n := 4 + int(sizeRaw)%10
		gen := gens[int(genRaw)%len(gens)]
		workers := 1 + 3*(int(workerRaw)%2)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		events := make([]lockstepEvent, 0, len(evRaw))
		for i, raw := range evRaw {
			events = append(events, lockstepEvent{
				round:   2 + i*11 + int(raw)%5,
				kind:    int(raw) % 3,
				fresh:   ident.ID(rng.Uint64() | 1),
				victim:  rng.Intn(64),
				contact: rng.Intn(64),
			})
		}
		return runLockstep(t, seed, n, gen, workers, 72, events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestLockstepRoundCountsAgree: beyond state equivalence, the
// quiescence-based fixed-point detector must report the same
// rounds-to-stable as the full-sweep snapshot detector.
func TestLockstepRoundCountsAgree(t *testing.T) {
	for _, n := range []int{3, 9, 17, 33} {
		seed := int64(1000 + n)
		build := func(cfg rechord.Config) *rechord.Network {
			rng := rand.New(rand.NewSource(seed))
			ids := topogen.RandomIDs(n, rng)
			return topogen.Random().Build(ids, rng, cfg)
		}
		inc := build(rechord.Config{})
		full := build(rechord.Config{FullSweep: true})

		fullRounds := -1
		prev := full.TakeSnapshot()
		for r := 0; r < 4000; r++ {
			full.Step()
			cur := full.TakeSnapshot()
			if cur.Equal(prev) {
				fullRounds = full.Round() - 1
				break
			}
			prev = cur
		}
		incRounds := -1
		for r := 0; r < 4000; r++ {
			inc.Step()
			if inc.Quiescent() {
				incRounds = inc.LastChange()
				break
			}
		}
		if fullRounds < 0 || incRounds != fullRounds {
			t.Errorf("n=%d: rounds-to-stable %d (incremental) vs %d (full sweep)", n, incRounds, fullRounds)
		}
	}
}
