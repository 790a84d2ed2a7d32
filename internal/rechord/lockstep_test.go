package rechord_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// The product engine — activity tracking, standing buckets on shared
// templates, hashed settle verdicts, the indexed wake, the sharded
// commit — claims exact equivalence with the paper's literal model: for
// any seed topology and any churn, the round-by-round global states are
// identical. These tests run it (at two worker counts) against the
// reference engine of reference_test.go and compare after every single
// round, through the one harness rechord.Lockstep.

// lockstepEvent is one membership change applied to every engine before
// the round with the same number.
type lockstepEvent struct {
	round   int
	kind    int // 0 join, 1 leave, 2 fail, 3 rejoin: a departed identifier comes back
	fresh   ident.ID
	victim  int // index into the peer list (for a rejoin: into the departed, latest first)
	contact int
}

// lockstepScript applies events and remembers who departed, so a rejoin
// can bring the same identifier back.
type lockstepScript struct {
	events   []lockstepEvent
	departed []ident.ID
}

// apply runs the events of the round against m — a Lockstep (every engine
// at once) or the two networks of an asynchronous pair — whose sorted
// live membership is peers.
func (s *lockstepScript) apply(m churn.Membership, peers func() []ident.ID, round int) error {
	for _, ev := range s.events {
		if ev.round != round {
			continue
		}
		live := peers()
		contact, victim := live[ev.contact%len(live)], live[ev.victim%len(live)]
		var err error
		switch {
		case ev.kind == 3 && len(s.departed) > 0:
			i := len(s.departed) - 1 - ev.victim%len(s.departed) // 0 is the latest departure
			back := s.departed[i]
			s.departed = append(s.departed[:i], s.departed[i+1:]...)
			err = m.Join(back, contact)
		case ev.kind == 0 || ev.kind == 3 || len(live) < 3:
			err = m.Join(ev.fresh, contact)
		case ev.kind == 1:
			s.departed = append(s.departed, victim)
			err = m.Leave(victim)
		default:
			s.departed = append(s.departed, victim)
			err = m.Fail(victim)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runLockstep builds the seed topology once per worker count, pairs the
// networks with a reference, and runs the script; it logs the first
// divergence and reports whether there was none.
func runLockstep(t *testing.T, seed int64, n int, gen topogen.Generator, workers []int, rounds int, events []lockstepEvent) bool {
	t.Helper()
	var nets []*rechord.Network
	for _, w := range workers {
		rng := rand.New(rand.NewSource(seed))
		nets = append(nets, gen.Build(topogen.RandomIDs(n, rng), rng, rechord.Config{Workers: w}))
	}
	l := rechord.NewLockstep(nets...)
	script := lockstepScript{events: events}
	for r := 0; r < rounds; r++ {
		err := script.apply(l, l.Ref.Peers, r)
		if err == nil {
			err = errors.Join(l.Step(), l.Exports())
		}
		if err != nil {
			t.Logf("seed=%d n=%d gen=%s: %v", seed, n, gen.Name, err)
			return false
		}
	}
	return true
}

// churnScript spreads one event per raw byte over the run, starting
// mid-convergence and ending past the fixed point.
func churnScript(seed int64, raws []uint8, kinds, gap int) []lockstepEvent {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	events := make([]lockstepEvent, 0, len(raws))
	for i, raw := range raws {
		events = append(events, lockstepEvent{
			round:   2 + i*gap + int(raw)%5,
			kind:    int(raw) % kinds,
			fresh:   ident.ID(rng.Uint64() | 1),
			victim:  rng.Intn(64),
			contact: rng.Intn(64),
		})
	}
	return events
}

// TestLockstepMatchesReference is the equivalence property over random
// topologies from every generator without churn. The round budget runs
// well past stabilization, so the quiescent schedule (empty frontier,
// identity rounds) is compared against literal rounds over the fixed
// point too.
func TestLockstepMatchesReference(t *testing.T) {
	gens := topogen.All()
	f := func(seed int64, sizeRaw, genRaw uint8) bool {
		return runLockstep(t, seed, 2+int(sizeRaw)%14, gens[int(genRaw)%len(gens)], []int{1, 4}, 60, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLockstepUnderChurn interleaves joins, graceful leaves, crash
// failures and rejoins of departed identifiers at arbitrary rounds —
// mid-convergence and after the fixed point — and demands the engines
// stay identical throughout.
func TestLockstepUnderChurn(t *testing.T) {
	gens := []topogen.Generator{topogen.Random(), topogen.Garbage(), topogen.PreStabilized()}
	f := func(seed int64, sizeRaw, genRaw uint8, evRaw [5]uint8) bool {
		return runLockstep(t, seed, 4+int(sizeRaw)%10, gens[int(genRaw)%len(gens)], []int{1, 4}, 72, churnScript(seed, evRaw[:], 4, 11))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestFlowSharedMatchesDeepCopySync: pointing standing buckets at
// refcounted spans of the sender's template is storage only. The
// reference's inboxes hold a private copy of every message, so the
// comparison (state, pending multiset, pending count) is shared against
// deep-copied, under a script that ends with a crash and a rejoin of the
// same identifier — the stalest standing-bucket path (handle generation
// bump plus AddPeer's rematerialization from live templates).
func TestFlowSharedMatchesDeepCopySync(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "serial", 4: "parallel"}[workers], func(t *testing.T) {
			for _, seed := range []int64{1, 7, 1011} {
				events := append(churnScript(seed, []uint8{0, 1, 2, 3}, 3, 9),
					lockstepEvent{round: 40, kind: 2, victim: 1},
					lockstepEvent{round: 46, kind: 3})
				if !runLockstep(t, seed, 12, topogen.Random(), []int{workers}, 60, events) {
					t.Fatalf("seed=%d: shared flows diverged from the reference", seed)
				}
			}
		})
	}
}

// TestLockstepRoundCountsAgree pins the number sim.Run reports as
// Result.Rounds to the paper's definition: the reference's clone-compare
// rounds-to-stable (the round before the first one that leaves the
// global state as it was) equals LastChange() of the quiescent product
// engine.
func TestLockstepRoundCountsAgree(t *testing.T) {
	for _, n := range []int{3, 9, 17, 33} {
		seed := int64(1000 + n)
		rng := rand.New(rand.NewSource(seed))
		nw := topogen.Random().Build(topogen.RandomIDs(n, rng), rng, rechord.Config{})
		l := rechord.NewLockstep(nw)
		for r := 0; r < 4000 && (r == 0 || l.Ref.LastChange() == l.Ref.Round()); r++ {
			if err := l.Step(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		refRounds := l.Ref.Round() - 1
		if refRounds != l.Ref.LastChange() || !nw.Quiescent() || nw.LastChange() != refRounds {
			t.Errorf("n=%d: rounds-to-stable %d (quiescent=%v) vs %d by clone-compare (last change %d)",
				n, nw.LastChange(), nw.Quiescent(), refRounds, l.Ref.LastChange())
		}
	}
}
