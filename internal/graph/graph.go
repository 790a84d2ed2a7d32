// Package graph provides directed multigraph snapshots of the Re-Chord
// network state, with the three edge markings of Section 2.2 (unmarked,
// ring, connection), weak-connectivity checks, and structural
// statistics used by the experiments.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ref"
)

// Kind is the marking of an edge: E_u, E_r or E_c in the paper.
type Kind int

const (
	// Unmarked edges (E_u) carry the topology being linearized.
	Unmarked Kind = iota
	// Ring edges (E_r) close the sorted list into a ring (rule 5).
	Ring
	// Connection edges (E_c) keep sibling clusters connected (rule 6).
	Connection
	numKinds
)

// String names the edge kind.
func (k Kind) String() string {
	switch k {
	case Unmarked:
		return "unmarked"
	case Ring:
		return "ring"
	case Connection:
		return "connection"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists all edge kinds in a stable order.
func Kinds() []Kind { return []Kind{Unmarked, Ring, Connection} }

// Edge is a directed, marked edge of the multigraph. The same (From,
// To) pair may appear once per Kind, as in the paper's multigraph.
type Edge struct {
	From, To ref.Ref
	Kind     Kind
}

// Graph is a snapshot of the network: the node set and all directed
// edges, grouped by kind. The zero value is an empty graph.
type Graph struct {
	nodes map[ref.Ref]bool
	edges map[Kind]map[Edge]bool
}

// New returns an empty graph.
func New() *Graph {
	g := &Graph{
		nodes: make(map[ref.Ref]bool),
		edges: make(map[Kind]map[Edge]bool),
	}
	for _, k := range Kinds() {
		g.edges[k] = make(map[Edge]bool)
	}
	return g
}

// AddNode inserts a node.
func (g *Graph) AddNode(r ref.Ref) { g.nodes[r] = true }

// AddEdge inserts a directed edge of the given kind, adding both
// endpoints as nodes.
func (g *Graph) AddEdge(from, to ref.Ref, k Kind) {
	g.AddNode(from)
	g.AddNode(to)
	g.edges[k][Edge{From: from, To: to, Kind: k}] = true
}

// HasEdge reports whether the directed edge exists with the kind.
func (g *Graph) HasEdge(from, to ref.Ref, k Kind) bool {
	return g.edges[k][Edge{From: from, To: to, Kind: k}]
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges of the given kind.
func (g *Graph) NumEdges(k Kind) int { return len(g.edges[k]) }

// TotalEdges returns the number of edges across all kinds.
func (g *Graph) TotalEdges() int {
	t := 0
	for _, k := range Kinds() {
		t += len(g.edges[k])
	}
	return t
}

// Nodes returns all nodes in a deterministic (sorted) order.
func (g *Graph) Nodes() []ref.Ref {
	out := make([]ref.Ref, 0, len(g.nodes))
	for r := range g.nodes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Edges returns all edges of the kind in a deterministic order.
func (g *Graph) Edges(k Kind) []Edge {
	out := make([]Edge, 0, len(g.edges[k]))
	for e := range g.edges[k] {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From.Less(out[j].From)
		}
		return out[i].To.Less(out[j].To)
	})
	return out
}

// AllEdges returns every edge of every kind in a deterministic order.
func (g *Graph) AllEdges() []Edge {
	var out []Edge
	for _, k := range Kinds() {
		out = append(out, g.Edges(k)...)
	}
	return out
}

// union-find over node indices for weak connectivity.
type dsu struct {
	parent []int
	rank   []int
}

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int, n), rank: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
}

// components assigns each node to a weakly connected component id,
// treating all edges as undirected. project maps a node to the vertex
// it should be identified with (identity for the plain node graph, the
// owner's real node for the "graph given by the real nodes").
func (g *Graph) components(project func(ref.Ref) ref.Ref) map[ref.Ref]int {
	idx := make(map[ref.Ref]int)
	var order []ref.Ref
	add := func(r ref.Ref) int {
		r = project(r)
		if i, ok := idx[r]; ok {
			return i
		}
		i := len(order)
		idx[r] = i
		order = append(order, r)
		return i
	}
	for _, r := range g.Nodes() {
		add(r)
	}
	d := newDSU(len(order) + 2*g.TotalEdges())
	for _, k := range Kinds() {
		for e := range g.edges[k] {
			d.union(add(e.From), add(e.To))
		}
	}
	// Normalize roots to small component ids.
	compID := make(map[int]int)
	out := make(map[ref.Ref]int, len(idx))
	for r, i := range idx {
		root := d.find(i)
		id, ok := compID[root]
		if !ok {
			id = len(compID)
			compID[root] = id
		}
		out[r] = id
	}
	return out
}

// WeaklyConnected reports whether the graph, viewed as undirected, has
// at most one component over all its nodes.
func (g *Graph) WeaklyConnected() bool {
	return g.NumComponents() <= 1
}

// NumComponents returns the number of weakly connected components.
func (g *Graph) NumComponents() int {
	comp := g.components(func(r ref.Ref) ref.Ref { return r })
	max := -1
	for _, id := range comp {
		if id > max {
			max = id
		}
	}
	return max + 1
}

// RealWeaklyConnected reports whether the graph projected onto real
// nodes is weakly connected: there is an edge (u,v) between real nodes
// u and v whenever any edge (u_i, v_j) of any kind exists (Section
// 3.1.1). All real nodes participate even when isolated; virtual nodes
// are identified with their owners.
func (g *Graph) RealWeaklyConnected() bool {
	comp := g.components(func(r ref.Ref) ref.Ref { return ref.Real(r.Owner()) })
	max := -1
	for _, id := range comp {
		if id > max {
			max = id
		}
	}
	return max+1 <= 1
}

// UnmarkedWeaklyConnected reports whether all nodes are weakly
// connected using unmarked edges only — the target of Phase 1 (Lemma
// 3.2).
func (g *Graph) UnmarkedWeaklyConnected() bool {
	sub := New()
	for r := range g.nodes {
		sub.AddNode(r)
	}
	for e := range g.edges[Unmarked] {
		sub.AddEdge(e.From, e.To, Unmarked)
	}
	return sub.WeaklyConnected()
}

// Equal reports whether both graphs have identical node and edge sets.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.nodes) != len(o.nodes) {
		return false
	}
	for r := range g.nodes {
		if !o.nodes[r] {
			return false
		}
	}
	for _, k := range Kinds() {
		if len(g.edges[k]) != len(o.edges[k]) {
			return false
		}
		for e := range g.edges[k] {
			if !o.edges[k][e] {
				return false
			}
		}
	}
	return true
}

// DOT renders the graph in Graphviz DOT format for debugging.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph rechord {\n")
	for _, r := range g.Nodes() {
		shape := "circle"
		if !r.IsReal() {
			shape = "box"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", r.String(), shape)
	}
	style := map[Kind]string{Unmarked: "solid", Ring: "bold", Connection: "dashed"}
	for _, e := range g.AllEdges() {
		fmt.Fprintf(&b, "  %q -> %q [style=%s];\n", e.From.String(), e.To.String(), style[e.Kind])
	}
	b.WriteString("}\n")
	return b.String()
}
