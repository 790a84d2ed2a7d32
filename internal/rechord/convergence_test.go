package rechord_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// TestConvergenceSmall is the core integration test: from the paper's
// random weakly connected initialization the network must reach the
// exact stable Re-Chord topology.
func TestConvergenceSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 12} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		ids := topogen.RandomIDs(n, rng)
		nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 1})
		idl := rechord.ComputeIdeal(ids)
		res, err := sim.RunToStable(context.Background(), nw, sim.Options{Ideal: idl})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := idl.Matches(nw); err != nil {
			t.Errorf("n=%d: converged to wrong state: %v", n, err)
		}
		t.Logf("n=%d: stable after %d rounds (almost stable %d), %d msgs",
			n, res.Rounds, res.AlmostStableRound, res.TotalMessages)
	}
}

// TestAdjacentPeersConverge runs peers u-1 and u from one seeded edge to
// the fixed point. u-1 is u's closest real node at clockwise distance
// 2^64-1, the largest there is, so u must drop to level 1 like the
// oracle says.
func TestAdjacentPeersConverge(t *testing.T) {
	u := ident.FromFloat(0.6)
	ids := []ident.ID{u - 1, u}
	nw := rechord.NewNetwork(rechord.Config{Workers: 1})
	for _, id := range ids {
		nw.AddPeer(id)
	}
	nw.SeedEdge(ref.Real(u-1), ref.Real(u), graph.Unmarked)
	idl := rechord.ComputeIdeal(ids)
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{Ideal: idl}); err != nil {
		t.Fatal(err)
	}
	if err := idl.Matches(nw); err != nil {
		t.Fatalf("fixed point is not the oracle's: %v", err)
	}
}
