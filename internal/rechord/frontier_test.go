package rechord

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// White-box tests for the activity-tracked scheduler's bookkeeping:
// which events put peers on the frontier, and that a quiescent network
// really is left untouched by Step.

// stableNet builds a small network and runs it to quiescence.
func stableNet(t *testing.T, n int, seed int64) (*Network, []ident.ID) {
	t.Helper()
	return stableNetCfg(t, n, seed, Config{Workers: 1})
}

func TestFrontierStartsFullAndDrains(t *testing.T) {
	nw := NewNetwork(Config{Workers: 1})
	for _, x := range []float64{0.1, 0.4, 0.8} {
		nw.AddPeer(ident.FromFloat(x))
	}
	nw.SeedEdge(ref.Real(ident.FromFloat(0.1)), ref.Real(ident.FromFloat(0.4)), graph.Unmarked)
	nw.SeedEdge(ref.Real(ident.FromFloat(0.4)), ref.Real(ident.FromFloat(0.8)), graph.Unmarked)
	if nw.Quiescent() {
		t.Fatal("fresh network must not be quiescent: every peer starts dirty")
	}
	if got := nw.FrontierSize(); got != 3 {
		t.Fatalf("FrontierSize = %d, want all 3 peers", got)
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		t.Fatal("network did not quiesce")
	}
	if got := nw.FrontierSize(); got != 0 {
		t.Fatalf("quiescent FrontierSize = %d, want 0", got)
	}
}

func TestQuiescentStepIsIdentity(t *testing.T) {
	nw, _ := stableNet(t, 12, 42)
	before := nw.TakeSnapshot()
	flow := nw.bucketMsgs
	for i := 0; i < 5; i++ {
		stats := nw.Step()
		if stats.MessagesSent != flow {
			t.Fatalf("quiescent round %d reported %d messages, want steady flow %d",
				i, stats.MessagesSent, flow)
		}
		if stats.VirtualMade != 0 || stats.VirtualKilled != 0 {
			t.Fatalf("quiescent round churned virtual nodes: %+v", stats)
		}
	}
	if !nw.TakeSnapshot().Equal(before) {
		t.Fatal("quiescent Step changed the global state")
	}
}

// TestFrontierRedirtyOnLateMessage: a one-shot message arriving at a
// settled peer must put exactly the affected region back on the
// frontier, and the network must absorb it and quiesce again.
func TestFrontierRedirtyOnLateMessage(t *testing.T) {
	nw, ids := stableNet(t, 10, 7)
	target := ids[3]
	// An edge insertion the stable state does not contain: point the
	// peer at some far-away node it has no business keeping.
	var other ident.ID
	for _, id := range ids {
		if id != target {
			other = id
		}
	}
	nw.routeMessage(target, Message{To: ref.Real(target), Kind: graph.Unmarked, Add: ref.Real(other)})
	if nw.Quiescent() {
		t.Fatal("late inbox message did not re-dirty the recipient")
	}
	if !nw.node(target).dirty {
		t.Fatal("recipient of one-shot message not on the frontier")
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		t.Fatal("network did not re-quiesce after the late message")
	}
	if err := ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("state wrong after absorbing late message: %v", err)
	}
}

func TestFrontierDirtyOnJoin(t *testing.T) {
	nw, ids := stableNet(t, 8, 11)
	joiner := ident.ID(rand.New(rand.NewSource(99)).Uint64() | 1)
	if err := nw.Join(joiner, ids[0]); err != nil {
		t.Fatal(err)
	}
	if nw.Quiescent() {
		t.Fatal("join did not dirty the frontier")
	}
	if !nw.node(joiner).dirty {
		t.Fatal("joiner not on the frontier")
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
		t.Fatalf("state wrong after join: %v", err)
	}
}

func TestFrontierDirtyOnLeaveAndFail(t *testing.T) {
	for name, depart := range map[string]func(*Network, ident.ID) error{
		"leave": (*Network).Leave,
		"fail":  (*Network).Fail,
	} {
		nw, ids := stableNet(t, 9, 23)
		victim := ids[4]
		// At the fixed point the victim's closest neighbors reference
		// it; after departure they must be woken for the purge.
		if err := depart(nw, victim); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nw.Quiescent() {
			t.Fatalf("%s did not dirty any peer", name)
		}
		woke := 0
		for _, n := range nw.pt.nodes {
			if n != nil && n.dirty {
				woke++
			}
		}
		if woke == 0 {
			t.Fatalf("%s: no referencing peer woken", name)
		}
		for r := 0; r < 4000 && !nw.Quiescent(); r++ {
			nw.Step()
		}
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("%s: state wrong after departure: %v", name, err)
		}
	}
}

// TestFrontierBucketAccounting: the standing-bucket message counter
// matches a direct count at quiescence and after churn re-settles.
func TestFrontierBucketAccounting(t *testing.T) {
	nw, ids := stableNet(t, 10, 31)
	count := func() int {
		c := 0
		for _, n := range nw.pt.nodes {
			if n == nil {
				continue
			}
			for _, b := range n.in {
				c += b.c.count()
			}
		}
		return c
	}
	if got := count(); got != nw.bucketMsgs {
		t.Fatalf("bucketMsgs = %d, direct count = %d", nw.bucketMsgs, got)
	}
	if err := nw.Fail(ids[2]); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if got := count(); got != nw.bucketMsgs {
		t.Fatalf("after churn: bucketMsgs = %d, direct count = %d", nw.bucketMsgs, got)
	}
}
