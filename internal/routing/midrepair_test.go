package routing

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
)

// midRepairTally classifies the lookups of one row (event kind × n, six
// seeds): a lookup on a published mid-repair view returns the key's
// successor under the membership before or after the event, or fails,
// or names a third peer.
type midRepairTally struct {
	lookups, errors, third int
	thirdFromJoiner        int // third-peer answers whose home was the fresh joiner
}

func (m *midRepairTally) observe(v *View, from, key, joiner ident.ID, pre, post []ident.ID) {
	m.lookups++
	switch got, _, err := v.Resolve(from, key); {
	case err != nil:
		m.errors++
	case got == ident.Successor(pre, key) || got == ident.Successor(post, key):
	default:
		m.third++
		if from == joiner {
			m.thirdFromJoiner++
		}
	}
}

// TestMidRepairLookupOutcomes measures what the published view answers
// while one membership event is being repaired — the states a facade KV
// call sees between Join/Leave/Fail and Stabilize, and a workload client
// between two publishes. Per event kind and size, six seeded events one
// after the other on a stable network: 2,000 lookups from random homes
// on the view published right after the event (round 0) and after each
// of the first 12 repair rounds, then the same at quiescence. A
// mid-repair lookup may fail; it must not fail often (≤ 1 % over rounds
// 0-12), never after a join, and the settled view must answer
// every lookup with the new owner. The log is the measurement DESIGN §4
// quotes, and the first datum for the "never a third peer" claim of
// ROADMAP item 1(e), which does not hold while a joiner is being
// absorbed.
func TestMidRepairLookupOutcomes(t *testing.T) {
	const seeds, rounds, perRound = 6, 12, 2000
	sizes := []int{64, 512}
	if testing.Short() {
		sizes = sizes[:1]
	}
	// One stable network per size, carried from event to event (each
	// starts from the fixed point the previous one was repaired to):
	// seeding a fresh one per event is four fifths of the run time.
	nets := map[int]*rechord.Network{}
	for _, n := range sizes {
		nw, _, err := churn.StableNetwork(context.Background(), n, rand.New(rand.NewSource(int64(n))), rechord.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		nets[n] = nw
	}
	for _, kind := range []churn.Kind{churn.Join, churn.Leave, churn.Fail} {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/n=%d", kind, n), func(t *testing.T) {
				nw := nets[n]
				cache := NewCache(nw)
				var first, repair, settled midRepairTally
				for seed := int64(1); seed <= seeds; seed++ {
					rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
					pre := nw.Peers()
					ev := churn.Event{Kind: kind, ID: pre[rng.Intn(len(pre))]}
					var joiner ident.ID
					if kind == churn.Join {
						joiner = ident.ID(rng.Uint64() | 1)
						ev.ID, ev.Contact = joiner, pre[rng.Intn(len(pre))]
					}
					if err := ev.Apply(nw); err != nil {
						t.Fatal(err)
					}
					post := nw.Peers()
					sample := func(m *midRepairTally) {
						v := cache.Publish()
						for i := 0; i < perRound; i++ {
							m.observe(v, post[rng.Intn(len(post))], ident.ID(rng.Uint64()), joiner, pre, post)
						}
					}
					sample(&first)
					for r := 0; r < rounds; r++ {
						nw.Step()
						sample(&repair)
					}
					for r := 0; r < 4000 && !nw.Quiescent(); r++ {
						nw.Step()
					}
					if !nw.Quiescent() {
						t.Fatalf("seed %d: not quiescent", seed)
					}
					pre = post // the settled view owes the new owner, nothing else
					sample(&settled)
				}
				for _, row := range []struct {
					when string
					m    midRepairTally
				}{{"round 0", first}, {fmt.Sprintf("rounds 1-%d", rounds), repair}} {
					t.Logf("%s: %d lookups, %d errors (%.2f%%), %d third-peer (%d homed at the joiner)", row.when,
						row.m.lookups, row.m.errors, 100*float64(row.m.errors)/float64(row.m.lookups), row.m.third, row.m.thirdFromJoiner)
				}
				if errs, all := first.errors+repair.errors, first.lookups+repair.lookups; errs*100 > all {
					t.Errorf("%d of %d mid-repair lookups failed: more than 1%%", errs, all)
				}
				if kind == churn.Join && first.errors+repair.errors > 0 {
					t.Errorf("%d lookups failed after a join: the old ring routes every key", first.errors+repair.errors)
				}
				if settled.errors+settled.third > 0 {
					t.Errorf("at quiescence %d of %d lookups failed and %d named a wrong owner", settled.errors, settled.lookups, settled.third)
				}
			})
		}
	}
}
