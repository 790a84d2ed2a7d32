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

// TestLocalCheckEquivalence is the paper's local-checkability claim as
// an executable invariant: at every round, the network is at the
// global fixed point if and only if every peer passes the purely local
// stability check.
func TestLocalCheckEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ids := topogen.RandomIDs(15, rng)
	nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 1})

	stableAt := -1
	nw.Step() // the check needs one executed round so lastOut is defined
	for round := 0; round < sim.DefaultMaxRounds(len(ids)); round++ {
		// The local check asks "is the current state a fixed point?",
		// i.e. whether the NEXT round will change anything; verify its
		// verdict by actually executing that round.
		allLocal := nw.CountLocallyStable() == nw.NumPeers()
		before := nw.TakeSnapshot()
		nw.Step()
		fixedPoint := nw.TakeSnapshot().Equal(before)
		if fixedPoint != allLocal {
			t.Fatalf("round %d: fixed point = %v but all-local = %v (%d/%d peers pass)",
				nw.Round(), fixedPoint, allLocal, nw.CountLocallyStable(), nw.NumPeers())
		}
		if fixedPoint {
			stableAt = nw.Round()
			break
		}
	}
	if stableAt < 0 {
		t.Fatal("network did not stabilize")
	}
}

// TestLocalCheckDetectsPerturbation: damaging one peer's state flips
// at least that peer's local check to false.
func TestLocalCheckDetectsPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	ids := topogen.RandomIDs(12, rng)
	nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 1})
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if nw.CountLocallyStable() != nw.NumPeers() {
		t.Fatalf("stable network: only %d/%d peers locally stable",
			nw.CountLocallyStable(), nw.NumPeers())
	}
	// Remove a closest-neighbor edge from one peer.
	target, ok := nw.Peer(ids[4]).VNode(0).Nu.Max()
	if !ok {
		t.Fatal("victim has empty neighborhood")
	}
	nw.RemoveNu(ids[4], 0, target)
	nw.Wake(ids[4]) // out-of-band mutation: tell the scheduler
	if nw.LocallyStable(ids[4]) {
		t.Fatal("peer with damaged neighborhood passes the local check")
	}
	// And the protocol repairs it.
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("network did not repair the perturbation: %v", err)
	}
	rechord.CheckDepIndex(t, nw, "after repair")
}

func TestLocallyStableUnknownPeer(t *testing.T) {
	nw := rechord.NewNetwork(rechord.Config{})
	if nw.LocallyStable(ident.FromFloat(0.5)) {
		t.Error("unknown peer reported locally stable")
	}
}

// TestLocalCheckMonotoneCount: the number of locally stable peers is
// low during early convergence and reaches n exactly at the fixed
// point (not necessarily monotonically, but it must end at n and start
// below n for a non-trivial initial state).
func TestLocalCheckMonotoneCount(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ids := topogen.RandomIDs(18, rng)
	nw := topogen.Line().Build(ids, rng, rechord.Config{Workers: 1})
	nw.Step()
	if got := nw.CountLocallyStable(); got == nw.NumPeers() {
		t.Fatalf("all %d peers locally stable right after round 1 of a line", got)
	}
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := nw.CountLocallyStable(); got != nw.NumPeers() {
		t.Fatalf("only %d/%d locally stable at the fixed point", got, nw.NumPeers())
	}
}
