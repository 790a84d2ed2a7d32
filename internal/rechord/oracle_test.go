package rechord

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

func randomReals(n int, rng *rand.Rand) []ident.ID {
	seen := map[ident.ID]bool{}
	var out []ident.ID
	for len(out) < n {
		id := ident.ID(rng.Uint64())
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

func TestIdealEmpty(t *testing.T) {
	idl := ComputeIdeal(nil)
	if len(idl.Nodes()) != 0 || idl.NumVirtual() != 0 {
		t.Error("empty ideal should have no nodes")
	}
}

func TestIdealSinglePeer(t *testing.T) {
	idl := ComputeIdeal([]ident.ID{ident.FromFloat(0.3)})
	if got := idl.Level(ident.FromFloat(0.3)); got != ident.MaxLevel {
		t.Errorf("single-peer m = %d, want MaxLevel", got)
	}
	if got := len(idl.Nodes()); got != ident.MaxLevel+1 {
		t.Errorf("node count = %d, want %d", got, ident.MaxLevel+1)
	}
}

func TestIdealSortedListStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idl := ComputeIdeal(randomReals(20, rng))
	nodes := idl.Nodes()
	for k, x := range nodes {
		nu := idl.Nu(x)
		// Every node's desired neighborhood contains its list
		// neighbors.
		if k > 0 && !nu.Contains(nodes[k-1]) {
			t.Fatalf("node %s missing left neighbor %s", x, nodes[k-1])
		}
		if k+1 < len(nodes) && !nu.Contains(nodes[k+1]) {
			t.Fatalf("node %s missing right neighbor %s", x, nodes[k+1])
		}
		// At most 4 outgoing unmarked edges (Section 2.2).
		if nu.Len() > 4 {
			t.Fatalf("node %s has %d desired edges, max 4", x, nu.Len())
		}
	}
}

func TestIdealClosestRealsAreReal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idl := ComputeIdeal(randomReals(15, rng))
	for _, x := range idl.Nodes() {
		for _, y := range idl.Nu(x).Slice() {
			if y == x {
				t.Fatalf("self-loop in ideal at %s", x)
			}
		}
	}
}

func TestIdealLevelsMatchSuccessorDistance(t *testing.T) {
	// m per peer must equal LevelForDist of the clockwise distance to
	// the real successor.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reals := randomReals(2+rng.Intn(20), rng)
		idl := ComputeIdeal(reals)
		sorted := append([]ident.ID(nil), reals...)
		ident.Sort(sorted)
		for i, u := range sorted {
			succ := sorted[(i+1)%len(sorted)]
			want := ident.LevelForDist(ident.Dist(u, succ))
			if idl.Level(u) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIdealGraphRingEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idl := ComputeIdeal(randomReals(10, rng))
	g := idl.Graph()
	nodes := idl.Nodes()
	mn, mx := nodes[0], nodes[len(nodes)-1]
	if !g.HasEdge(mx, mn, graph.Ring) || !g.HasEdge(mn, mx, graph.Ring) {
		t.Error("ideal graph missing the two ring edges between extremes")
	}
	if g.NumEdges(graph.Ring) != 2 {
		t.Errorf("ideal ring edges = %d, want 2", g.NumEdges(graph.Ring))
	}
}

func TestChordGraphProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	reals := randomReals(30, rng)
	idl := ComputeIdeal(reals)
	cg := idl.ChordGraph()
	sorted := append([]ident.ID(nil), reals...)
	ident.Sort(sorted)
	// Every peer has its ring successor edge.
	for i, u := range sorted {
		succ := sorted[(i+1)%len(sorted)]
		if !cg.HasEdge(ref.Real(u), ref.Real(succ), graph.Unmarked) {
			t.Fatalf("chord graph missing successor edge %s -> %s", u, succ)
		}
	}
	// Every finger points at the ring successor of u + 1/2^i.
	for _, e := range cg.Edges(graph.Unmarked) {
		if !e.From.IsReal() || !e.To.IsReal() {
			t.Fatal("chord graph must contain only real nodes")
		}
	}
	if cg.NumEdges(graph.Unmarked) < len(reals) {
		t.Error("chord graph has fewer edges than peers")
	}
	if slots := idl.ChordEdgeSlots(); slots != len(reals)+idl.NumVirtual() {
		t.Errorf("ChordEdgeSlots = %d, want peers+virtuals = %d", slots, len(reals)+idl.NumVirtual())
	}
}

func TestMatchesDetectsDeviations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := randomReals(8, rng)
	nw := NewNetwork(Config{Workers: 1})
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < len(ids); i++ {
		nw.SeedEdge(ref.Real(ids[i-1]), ref.Real(ids[i]), graph.Unmarked)
	}
	idl := ComputeIdeal(ids)
	if err := idl.Matches(nw); err == nil {
		t.Fatal("Matches accepted an unconverged network")
	}
	// Converge, then Matches must accept.
	prev := nw.TakeSnapshot()
	for i := 0; i < 5000; i++ {
		nw.Step()
		cur := nw.TakeSnapshot()
		if cur.Equal(prev) {
			break
		}
		prev = cur
	}
	if err := idl.Matches(nw); err != nil {
		t.Fatalf("Matches rejected the converged state: %v", err)
	}
	// Damage one edge: Matches must notice.
	n := nw.Peer(ids[0])
	v := n.VNode(0)
	if rm, ok := v.Nu.Max(); ok {
		v.Nu.Remove(rm)
	}
	if err := idl.Matches(nw); err == nil {
		t.Fatal("Matches accepted a damaged network")
	}
}

func TestMatchesPeerSetMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ids := randomReals(4, rng)
	nw := NewNetwork(Config{})
	for _, id := range ids[:3] {
		nw.AddPeer(id)
	}
	if err := ComputeIdeal(ids).Matches(nw); err == nil {
		t.Fatal("Matches accepted wrong peer count")
	}
	nw.AddPeer(ids[3] + 1) // same count, different id
	if err := ComputeIdeal(ids).Matches(nw); err == nil {
		t.Fatal("Matches accepted wrong peer set")
	}
}

func TestAlmostStableSubset(t *testing.T) {
	// AlmostStable must hold for the exact converged state and fail
	// for a fresh network.
	rng := rand.New(rand.NewSource(7))
	ids := randomReals(6, rng)
	nw := NewNetwork(Config{Workers: 1})
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < len(ids); i++ {
		nw.SeedEdge(ref.Real(ids[0]), ref.Real(ids[i]), graph.Unmarked)
	}
	idl := ComputeIdeal(ids)
	if idl.AlmostStable(nw) {
		t.Fatal("fresh star network cannot be almost stable")
	}
	prev := nw.TakeSnapshot()
	for i := 0; i < 5000; i++ {
		nw.Step()
		cur := nw.TakeSnapshot()
		if cur.Equal(prev) {
			break
		}
		prev = cur
	}
	if !idl.AlmostStable(nw) {
		t.Fatal("converged network must be almost stable")
	}
}

// settledIdealNet is idealSeededNet stepped to quiescence: the legal
// stable state, standing flow included.
func settledIdealNet(tb testing.TB, n int) (*Network, *Ideal) {
	nw, idl := idealSeededNet(Config{Workers: 1}, n)
	for i := 0; !nw.Quiescent(); i++ {
		if i == 10000 {
			tb.Fatalf("n=%d did not settle", n)
		}
		nw.Step()
	}
	return nw, idl
}

func TestMatchesDetectsMissingVirtualNode(t *testing.T) {
	nw, idl := settledIdealNet(t, 16)
	if err := idl.Matches(nw); err != nil {
		t.Fatalf("Matches rejected the settled state: %v", err)
	}
	// Remove a middle level out of band: the peer's span m is unchanged,
	// only one of its virtual nodes is gone.
	for _, u := range nw.Peers() {
		if n := nw.Peer(u); n.MaxLevel() >= 2 {
			n.vnodes[1] = nil
			if err := idl.Matches(nw); err == nil {
				t.Fatalf("Matches accepted peer %s without its level-1 virtual node", u)
			}
			return
		}
	}
	t.Fatal("no peer with m >= 2")
}

// BenchmarkOracle times the oracle on a settled network: building the
// stable topology from the membership and checking the state against it.
func BenchmarkOracle(b *testing.B) {
	for _, n := range []int{512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, _ := settledIdealNet(b, n)
			peers := nw.Peers()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := ComputeIdeal(peers).Matches(nw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
