package rechord_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
)

// checkPublishedView asserts the cache's published view is level with
// the network: same membership, and for every member a table deep-equal
// to a fresh TableOf — served from the view, not built by the check
// (the miss counter does not move).
func checkPublishedView(t *testing.T, when string, nw *rechord.Network, cache *routing.Cache) {
	t.Helper()
	peers := nw.Peers()
	if got := cache.View().Peers(); !reflect.DeepEqual(got, peers) {
		t.Fatalf("%s: view lists %d members %v, network has %d %v", when, len(got), got, len(peers), peers)
	}
	_, misses := cache.Stats()
	for _, id := range peers {
		want, err := routing.TableOf(nw, id)
		if err != nil {
			t.Fatalf("%s: TableOf(%s): %v", when, id, err)
		}
		got, err := cache.Table(id)
		if err != nil {
			t.Fatalf("%s: published table of %s: %v", when, id, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: published table of %s differs from TableOf:\n  view  %+v\n  fresh %+v", when, id, got, want)
		}
	}
	if _, after := cache.Stats(); after != misses {
		t.Fatalf("%s: reading the view built %d tables: it was not whole", when, after-misses)
	}
}

// TestPublishedViewMatchesTableOf drives every golden churn script,
// under the synchronous and the asynchronous scheduler, the way the
// workload's churn driver does — apply the due events, publish, step a
// chunk, publish — and checks the published view after every publish.
func TestPublishedViewMatchesTableOf(t *testing.T) {
	const chunk = 3
	t.Run("slot-reuse", testPublishedViewSlotReuse)
	for _, c := range goldenCases() {
		for _, s := range goldenSchedulers[:2] {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				nw := c.build(1)
				var sched rechord.Scheduler = nw
				if s.cfg != nil {
					sched = rechord.NewAsyncRunner(nw, *s.cfg, rand.New(rand.NewSource(c.seed+99)))
				}
				cache := routing.NewCache(nw)
				cache.Publish()
				checkPublishedView(t, "initial", nw, cache)
				script := newGoldenScript(c)
				for step := 1; step <= script.lastStep() || !sched.Quiescent(); step++ {
					if step > goldenMaxSteps {
						t.Fatalf("not quiescent after %d steps", goldenMaxSteps)
					}
					if script.apply(t, step, nw.Peers, nw.Join, nw.Leave, nw.Fail) > 0 {
						cache.Publish()
						checkPublishedView(t, fmt.Sprintf("after the events of step %d", step), nw, cache)
					}
					sched.Step()
					if step%chunk == 0 {
						cache.Publish()
						checkPublishedView(t, fmt.Sprintf("after step %d", step), nw, cache)
					}
				}
				cache.Publish()
				checkPublishedView(t, "settled", nw, cache)
			})
		}
	}
}

// testPublishedViewSlotReuse: a peer leaves and the next joiner lands in
// its interner slot. The published view serves the new tenant its own
// table and refuses the departed peer; a reader still holding the view
// from before — in which the slot belongs to the departed peer — keeps
// reading exactly what it read then, never the new tenant's table under
// the old identifier.
func testPublishedViewSlotReuse(t *testing.T) {
	c := goldenCases()[0]
	nw := c.build(1)
	for i := 0; i < goldenMaxSteps && !nw.Quiescent(); i++ {
		nw.Step()
	}
	cache := routing.NewCache(nw)
	cache.Publish()
	before := cache.View()

	peers := nw.Peers()
	old, contact := peers[3], peers[0]
	key := ident.ID(1)
	owner0, hops0, err := before.Resolve(old, key)
	if err != nil {
		t.Fatal(err)
	}
	slot, _, _ := nw.PeerSlot(old)
	if err := nw.Leave(old); err != nil {
		t.Fatal(err)
	}
	fresh := ident.ID(0x5eed5eed5eed5eed)
	if err := nw.Join(fresh, contact); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := nw.PeerSlot(fresh); got != slot {
		t.Fatalf("joiner landed in slot %d, the departed peer held %d: no reuse to test", got, slot)
	}
	cache.Publish()
	checkPublishedView(t, "after leave+join", nw, cache)

	if !before.Has(old) || before.Has(fresh) {
		t.Fatal("the earlier view's membership changed under its reader")
	}
	if owner, hops, err := before.Resolve(old, key); err != nil || owner != owner0 || hops != hops0 {
		t.Fatalf("the earlier view answered (%s, %d hops, %v) from %s, before slot %d was reused (%s, %d hops)", owner, hops, err, old, slot, owner0, hops0)
	}
	if _, _, err := cache.View().Resolve(old, key); err == nil {
		t.Fatal("the published view still routes from the departed peer")
	}
}
