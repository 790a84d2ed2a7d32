package rechord

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Regression coverage for Network.resolve's stale-level fallback: a
// reference to a deleted (or never-created) virtual level of a live
// peer must redirect to the peer's real node — the process that
// answers for all of the peer's virtual addresses — and must not be
// dropped like a reference to a departed peer. The incremental
// scheduler's purge path depends on this: a woken peer purges against
// the maintained level table, and losing the reference instead of
// redirecting it could disconnect the graph.

func TestResolveStaleLevelFallsBackToRealNode(t *testing.T) {
	nw := NewNetwork(Config{Workers: 1})
	a := ident.FromFloat(0.2)
	b := ident.FromFloat(0.7)
	nw.AddPeer(a)
	nw.AddPeer(b)

	// a simulates only level 0; a reference to its level 5 is stale.
	got, ok := nw.resolve(ref.Virtual(a, 5))
	if !ok {
		t.Fatal("reference to stale level of a live peer was dropped")
	}
	if got != ref.Real(a) {
		t.Fatalf("stale-level reference resolved to %s, want %s", got, ref.Real(a))
	}

	// A valid level resolves to itself.
	nw.SeedEdge(ref.Virtual(a, 2), ref.Real(b), graph.Unmarked)
	if got, ok := nw.resolve(ref.Virtual(a, 2)); !ok || got != ref.Virtual(a, 2) {
		t.Fatalf("valid reference resolved to %s (ok=%v), want itself", got, ok)
	}

	// A departed peer's references are dropped, not redirected.
	if _, ok := nw.resolve(ref.Real(ident.FromFloat(0.9))); ok {
		t.Fatal("reference to unknown peer resolved")
	}
}

func TestPurgeRedirectsStaleLevel(t *testing.T) {
	nw := NewNetwork(Config{Workers: 1})
	a := ident.FromFloat(0.2)
	b := ident.FromFloat(0.7)
	nw.AddPeer(a)
	nw.AddPeer(b)
	// b holds edges of every kind to a's nonexistent level 6.
	stale := ref.Virtual(a, 6)
	nw.SeedEdge(ref.Real(b), stale, graph.Unmarked)
	nw.SeedEdge(ref.Real(b), stale, graph.Ring)
	nw.SeedEdge(ref.Real(b), stale, graph.Connection)

	// The seeded connection edge is a one-shot: deliver puts it into the
	// worker's N_c, which purge resolves like the sets.
	n, w := nw.node(b), new(worker)
	nw.deliver(n, w)
	nw.purge(n, w)

	v := n.VNode(0)
	for name, s := range map[string]*ref.Set{"Nu": &v.Nu, "Nr": &v.Nr, "Nc": w.ncAt(0)} {
		if s.Contains(stale) {
			t.Errorf("%s still holds the stale reference %s", name, stale)
		}
		if !s.Contains(ref.Real(a)) {
			t.Errorf("%s lost the reference entirely: %s, want redirect to %s", name, s, ref.Real(a))
		}
	}
}

// TestPurgeRedirectAfterLevelShrink drives the same fallback through
// the engine: peer a grows virtual levels, b references a deep one,
// then a's knowledge changes so the level disappears — b's reference
// must collapse to a's real node during the next rounds rather than
// vanish, and the network must still converge.
func TestPurgeRedirectAfterLevelShrink(t *testing.T) {
	nw := NewNetwork(Config{Workers: 1})
	a := ident.FromFloat(0.2)
	b := ident.FromFloat(0.7)
	nw.AddPeer(a)
	nw.AddPeer(b)
	nw.SeedEdge(ref.Real(a), ref.Real(b), graph.Unmarked)
	// b starts out knowing only a deep (stale) virtual address of a.
	nw.SeedEdge(ref.Real(b), ref.Virtual(a, 9), graph.Unmarked)

	for r := 0; r < 200 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		t.Fatal("two-peer network did not quiesce")
	}
	if err := ComputeIdeal([]ident.ID{a, b}).Matches(nw); err != nil {
		t.Fatalf("converged to wrong state: %v", err)
	}
}
