package rechord_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// TestPropertyConvergesFromAnyConnectedState is the central property
// of Theorem 1.1 as a randomized test: any weakly connected initial
// state over random peers converges to the exact oracle topology.
func TestPropertyConvergesFromAnyConnectedState(t *testing.T) {
	gens := topogen.All()
	f := func(seed int64, sizeRaw, genRaw uint8) bool {
		n := 2 + int(sizeRaw)%24
		gen := gens[int(genRaw)%len(gens)]
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(n, rng)
		nw := gen.Build(ids, rng, rechord.Config{Workers: 2})
		if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
			t.Logf("seed=%d n=%d gen=%s: %v", seed, n, gen.Name, err)
			return false
		}
		if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
			t.Logf("seed=%d n=%d gen=%s: %v", seed, n, gen.Name, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWeakConnectivityPreserved: the protocol never
// disconnects the real-node graph (edges are only handed over, never
// silently dropped while still needed).
func TestPropertyWeakConnectivityPreserved(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := 2 + int(sizeRaw)%16
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(n, rng)
		nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 1})
		for round := 0; round < 30; round++ {
			if !nw.Graph().RealWeaklyConnected() {
				t.Logf("seed=%d n=%d: disconnected at round %d", seed, n, round)
				return false
			}
			nw.Step()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyChurnClosure: after any random sequence of joins,
// leaves and failures (run to quiescence after each), the network is
// in the exact stable state for the surviving membership.
func TestPropertyChurnClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(6+rng.Intn(6), rng)
		nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{Workers: 2})
		if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			peers := nw.Peers()
			switch {
			case len(peers) < 3 || rng.Intn(2) == 0:
				if err := nw.Join(ident.ID(rng.Uint64()|1), peers[rng.Intn(len(peers))]); err != nil {
					return false
				}
			case rng.Intn(2) == 0:
				if err := nw.Leave(peers[rng.Intn(len(peers))]); err != nil {
					return false
				}
			default:
				if err := nw.Fail(peers[rng.Intn(len(peers))]); err != nil {
					return false
				}
			}
			if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
				t.Logf("seed=%d step=%d: %v", seed, i, err)
				return false
			}
		}
		if err := rechord.ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoSelfLoops: no rule ever creates a self-loop edge.
func TestPropertyNoSelfLoops(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(2+rng.Intn(12), rng)
		nw := topogen.Garbage().Build(ids, rng, rechord.Config{Workers: 1})
		for round := 0; round < 20; round++ {
			nw.Step()
			for _, e := range nw.Graph().AllEdges() {
				if e.From == e.To {
					t.Logf("seed=%d: self-loop %v at round %d", seed, e, round)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVirtualLevelsContiguous: after every round each peer
// simulates exactly the levels 0..m for some m (rule 1 keeps the
// sibling set contiguous).
func TestPropertyVirtualLevelsContiguous(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(2+rng.Intn(12), rng)
		nw := topogen.Garbage().Build(ids, rng, rechord.Config{Workers: 1})
		for round := 0; round < 15; round++ {
			nw.Step()
			for _, id := range nw.Peers() {
				levels := nw.Peer(id).Levels()
				for i, l := range levels {
					if l != i {
						t.Logf("seed=%d: peer %s has non-contiguous levels %v", seed, id, levels)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMonotoneAlmostStability: once all desired edges exist
// they are never lost again on the way to the fixed point.
func TestPropertyMonotoneAlmostStability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(2+rng.Intn(14), rng)
		nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 2})
		idl := rechord.ComputeIdeal(ids)
		reached := false
		for round := 0; round < sim.DefaultMaxRounds(len(ids)); round++ {
			prev := nw.TakeSnapshot()
			nw.Step()
			almost := idl.AlmostStable(nw)
			if reached && !almost {
				t.Logf("seed=%d: almost-stability lost at round %d", seed, nw.Round())
				return false
			}
			if almost {
				reached = true
			}
			if nw.TakeSnapshot().Equal(prev) {
				return reached
			}
		}
		t.Logf("seed=%d: did not stabilize", seed)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestGarbageWithAllEdgeKinds: ring and connection edges in the
// initial state keep the graph weakly connected for the premise, and
// the protocol absorbs them. A seeded connection edge waits as a
// one-shot for the peer's first run, so the engine (Workers 1 and 4)
// runs in lockstep with the reference, compared after every round.
func TestGarbageWithAllEdgeKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ids := topogen.RandomIDs(18, rng)
	// A tree built purely from ring and connection edges.
	type edge struct {
		from, to ref.Ref
		kind     graph.Kind
	}
	kinds := []graph.Kind{graph.Ring, graph.Connection}
	var tree []edge
	for i := 1; i < len(ids); i++ {
		tree = append(tree, edge{refAt(ids[i], rng.Intn(4)), refAt(ids[rng.Intn(i)], rng.Intn(4)), kinds[i%2]})
	}
	var nets []*rechord.Network
	for _, workers := range []int{1, 4} {
		nw := rechord.NewNetwork(rechord.Config{Workers: workers})
		for _, id := range ids {
			nw.AddPeer(id)
		}
		for _, e := range tree {
			nw.SeedEdge(e.from, e.to, e.kind)
		}
		nets = append(nets, nw)
	}
	l := rechord.NewLockstep(nets...)
	for r := 0; !nets[0].Quiescent(); r++ {
		if r == 1000 {
			t.Fatal("no fixed point within 1000 rounds")
		}
		if err := errors.Join(l.Step(), l.Exports()); err != nil {
			t.Fatal(err)
		}
	}
	if err := rechord.ComputeIdeal(ids).Matches(nets[0]); err != nil {
		t.Fatalf("marked-edges-only initial state: %v", err)
	}
}

func refAt(id ident.ID, lvl int) ref.Ref { return ref.Virtual(id, lvl) }
