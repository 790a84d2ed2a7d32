package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/ref"
)

func r(x float64) ref.Ref          { return ref.Real(ident.FromFloat(x)) }
func v(x float64, lvl int) ref.Ref { return ref.Virtual(ident.FromFloat(x), lvl) }

func TestAddEdgeAddsNodes(t *testing.T) {
	g := New()
	g.AddEdge(r(0.1), r(0.2), Unmarked)
	if nodes := g.Nodes(); len(nodes) != 2 || !slices.Contains(nodes, r(0.1)) || !slices.Contains(nodes, r(0.2)) {
		t.Errorf("AddEdge added nodes %v, want its two endpoints", nodes)
	}
	if !g.HasEdge(r(0.1), r(0.2), Unmarked) {
		t.Error("edge missing")
	}
	if g.HasEdge(r(0.2), r(0.1), Unmarked) {
		t.Error("reverse edge must not exist (directed)")
	}
	if g.HasEdge(r(0.1), r(0.2), Ring) {
		t.Error("edge kind must be distinguished")
	}
}

func TestMultigraphKinds(t *testing.T) {
	g := New()
	g.AddEdge(r(0.1), r(0.2), Unmarked)
	g.AddEdge(r(0.1), r(0.2), Ring)
	g.AddEdge(r(0.1), r(0.2), Connection)
	g.AddEdge(r(0.1), r(0.2), Unmarked) // duplicate, set semantics per kind
	if g.TotalEdges() != 3 {
		t.Errorf("TotalEdges = %d, want 3 (one per kind)", g.TotalEdges())
	}
	if g.NumEdges(Ring) != 1 || g.NumEdges(Connection) != 1 || g.NumEdges(Unmarked) != 1 {
		t.Error("per-kind counts wrong")
	}
}

func TestCounts(t *testing.T) {
	g := New()
	g.AddNode(r(0.5))
	g.AddNode(v(0.5, 1))
	g.AddNode(v(0.5, 2))
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	if real := slices.DeleteFunc(g.Nodes(), func(x ref.Ref) bool { return !x.IsReal() }); len(real) != 1 {
		t.Errorf("real nodes %v, want one", real)
	}
}

func TestWeaklyConnected(t *testing.T) {
	g := New()
	if !g.WeaklyConnected() {
		t.Error("empty graph should count as connected")
	}
	g.AddEdge(r(0.1), r(0.2), Unmarked)
	g.AddEdge(r(0.3), r(0.2), Ring) // direction against the flow: weak connectivity ignores it
	if !g.WeaklyConnected() {
		t.Error("chain should be weakly connected")
	}
	g.AddNode(r(0.9))
	if g.WeaklyConnected() {
		t.Error("isolated node should break connectivity")
	}
	if g.NumComponents() != 2 {
		t.Errorf("NumComponents = %d, want 2", g.NumComponents())
	}
}

func TestRealWeaklyConnected(t *testing.T) {
	g := New()
	// Two real nodes connected only through their virtual nodes:
	// u_1 -> w_2 makes the REAL graph {u,w} connected even though u and
	// w themselves have no direct edge.
	g.AddNode(r(0.1))
	g.AddNode(r(0.6))
	g.AddEdge(v(0.1, 1), v(0.6, 2), Connection)
	if !g.RealWeaklyConnected() {
		t.Error("virtual-virtual edge must connect the owners' real graph")
	}
	// A third real node with no edges at all is disconnected.
	g.AddNode(r(0.9))
	if g.RealWeaklyConnected() {
		t.Error("isolated real node must break real connectivity")
	}
}

func TestUnmarkedWeaklyConnected(t *testing.T) {
	g := New()
	g.AddEdge(r(0.1), r(0.2), Ring)
	if g.UnmarkedWeaklyConnected() {
		t.Error("ring edge must not count for Phase-1 connectivity")
	}
	g.AddEdge(r(0.2), r(0.1), Unmarked)
	if !g.UnmarkedWeaklyConnected() {
		t.Error("unmarked edge should connect the two nodes")
	}
}

func TestEqualAndSubgraph(t *testing.T) {
	a, b := New(), New()
	a.AddEdge(r(0.1), r(0.2), Unmarked)
	b.AddEdge(r(0.1), r(0.2), Unmarked)
	if !a.Equal(b) {
		t.Error("identical graphs not Equal")
	}
	b.AddEdge(r(0.2), r(0.3), Ring)
	if a.Equal(b) {
		t.Error("different graphs compare Equal")
	}
}

func TestNodesAndEdgesDeterministic(t *testing.T) {
	build := func(seed int64) *Graph {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 0; i < 50; i++ {
			g.AddEdge(
				ref.Real(ident.ID(rng.Uint64())),
				ref.Real(ident.ID(rng.Uint64())),
				Kind(rng.Intn(3)),
			)
		}
		return g
	}
	g1, g2 := build(42), build(42)
	n1, n2 := g1.Nodes(), g2.Nodes()
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("Nodes() order not deterministic")
		}
	}
	e1, e2 := g1.AllEdges(), g2.AllEdges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("AllEdges() order not deterministic")
		}
	}
}

func TestComponentsLargeRandom(t *testing.T) {
	// A random spanning tree is always weakly connected; removing the
	// bridge of a two-tree forest is not.
	rng := rand.New(rand.NewSource(11))
	g := New()
	nodes := make([]ref.Ref, 300)
	for i := range nodes {
		nodes[i] = ref.Real(ident.ID(rng.Uint64()))
		g.AddNode(nodes[i])
	}
	for i := 1; i < len(nodes); i++ {
		g.AddEdge(nodes[i], nodes[rng.Intn(i)], Kind(rng.Intn(3)))
	}
	if !g.WeaklyConnected() {
		t.Error("spanning tree should be weakly connected")
	}
}

func TestKindString(t *testing.T) {
	if Unmarked.String() != "unmarked" || Ring.String() != "ring" || Connection.String() != "connection" {
		t.Error("Kind.String names wrong")
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Error("unknown kind should render as Kind(n)")
	}
}

func TestDOT(t *testing.T) {
	g := New()
	g.AddEdge(r(0.1), v(0.2, 1), Ring)
	dot := g.DOT()
	for _, want := range []string{"digraph", "->", "style=bold", "shape=box", "shape=circle"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}
