package rechord

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Ideal is the unique stable Re-Chord topology for a fixed set of
// peers (the oracle the experiments compare converged states against,
// and the basis of the "almost stable" detector of Section 5). It is a
// function of the sorted identifiers alone, so it stores nothing else:
// a peer's m follows from its index in reals, and a node's desired
// unmarked edges, closest reals and ring edge from its index in nodes.
type Ideal struct {
	reals []ident.ID // sorted peer identifiers
	nodes []ref.Ref  // all real+virtual nodes, sorted by Less
}

// ComputeIdeal builds the stable topology for the given peers.
func ComputeIdeal(reals []ident.ID) *Ideal {
	id := &Ideal{reals: slices.Clone(reals)}
	ident.Sort(id.reals)
	for i, u := range id.reals {
		for l := range id.levelAt(i) + 1 {
			id.nodes = append(id.nodes, ref.Virtual(u, l))
		}
	}
	slices.SortFunc(id.nodes, ref.Ref.Compare)
	return id
}

// levelAt is the stable m of the i-th peer: determined by the distance
// to its clockwise real successor (the closest real node the peer knows
// in the stable state).
func (id *Ideal) levelAt(i int) int {
	u, succ := id.reals[i], id.reals[(i+1)%len(id.reals)]
	if succ == u {
		return ident.MaxLevel
	}
	return ident.LevelForDist(ident.Dist(u, succ))
}

// closestReals returns the desired rl and rr of nodes[k]: the largest
// real strictly below it and the smallest real strictly above it.
func (id *Ideal) closestReals(k int) (rl, rr ref.Ref, hasRL, hasRR bool) {
	i, isReal := slices.BinarySearch(id.reals, id.nodes[k].ID())
	if i > 0 {
		rl, hasRL = ref.Real(id.reals[i-1]), true
	}
	if isReal {
		i++
	}
	if i < len(id.reals) {
		rr, hasRR = ref.Real(id.reals[i]), true
	}
	return rl, rr, hasRL, hasRR
}

// nuAt appends the desired unmarked out-neighborhood of nodes[k] to buf
// in set order: its list neighbours plus its closest reals. The closest
// real to the left is a node of the list below nodes[k], so it is at or
// before the left neighbour, and symmetrically on the right.
func (id *Ideal) nuAt(k int, buf []ref.Ref) []ref.Ref {
	rl, rr, hasRL, hasRR := id.closestReals(k)
	if k > 0 {
		if hasRL && rl != id.nodes[k-1] {
			buf = append(buf, rl)
		}
		buf = append(buf, id.nodes[k-1])
	}
	if k+1 < len(id.nodes) {
		buf = append(buf, id.nodes[k+1])
		if hasRR && rr != id.nodes[k+1] {
			buf = append(buf, rr)
		}
	}
	return buf
}

// ringAt returns the desired ring edge of nodes[k]: the global maximum
// holds one to the global minimum (which misses a left neighbour) and
// vice versa.
func (id *Ideal) ringAt(k int) (ref.Ref, bool) {
	switch last := len(id.nodes) - 1; k {
	case 0:
		return id.nodes[last], true
	case last:
		return id.nodes[0], true
	}
	return ref.Ref{}, false
}

// index locates a node of the stable topology.
func (id *Ideal) index(x ref.Ref) (int, bool) {
	return slices.BinarySearchFunc(id.nodes, x, ref.Ref.Compare)
}

// Nodes returns all nodes of the stable topology in increasing order.
func (id *Ideal) Nodes() []ref.Ref { return id.nodes }

// Level returns the stable m of the peer (0 for a non-member).
func (id *Ideal) Level(u ident.ID) int {
	if i, ok := slices.BinarySearch(id.reals, u); ok {
		return id.levelAt(i)
	}
	return 0
}

// NumVirtual returns the total number of virtual nodes (levels >= 1).
func (id *Ideal) NumVirtual() int { return len(id.nodes) - len(id.reals) }

// Nu returns the desired unmarked out-neighborhood of a node (empty for
// a node outside the stable topology).
func (id *Ideal) Nu(x ref.Ref) ref.Set {
	k, ok := id.index(x)
	if !ok {
		return ref.Set{}
	}
	var buf [4]ref.Ref
	return ref.NewSet(id.nuAt(k, buf[:0])...)
}

// Graph returns the desired topology as a graph over all nodes, with
// unmarked and ring edges (connection edges are transient flow and not
// part of the target).
func (id *Ideal) Graph() *graph.Graph {
	g := graph.New()
	var buf [4]ref.Ref
	for k, x := range id.nodes {
		g.AddNode(x)
		for _, y := range id.nuAt(k, buf[:0]) {
			g.AddEdge(x, y, graph.Unmarked)
		}
		if y, ok := id.ringAt(k); ok {
			g.AddEdge(x, y, graph.Ring)
		}
	}
	return g
}

// AlmostStable reports whether every desired edge of the stable
// topology is already present in the network — the paper's "almost
// stable" state of Figure 6 (extra edges are allowed).
func (id *Ideal) AlmostStable(nw *Network) bool {
	var buf [4]ref.Ref
	for k, x := range id.nodes {
		n := nw.Peer(x.Owner())
		if n == nil {
			return false
		}
		v := n.VNode(x.Level())
		if v == nil {
			return false
		}
		for _, y := range id.nuAt(k, buf[:0]) {
			if !v.Nu.Contains(y) {
				return false
			}
		}
		if y, ok := id.ringAt(k); ok && !v.Nr.Contains(y) {
			return false
		}
	}
	return true
}

// Matches verifies that the network state is exactly the stable
// topology: the same virtual nodes, exactly the desired unmarked and
// ring edges, and correct rl/rr everywhere. Connection edges are
// steady-state flow, pending between rounds and stored by no peer, so
// they are not checked. A nil error means the state is the legal stable
// state.
func (id *Ideal) Matches(nw *Network) error {
	if len(nw.order) != len(id.reals) {
		return fmt.Errorf("peer count %d, want %d", len(nw.order), len(id.reals))
	}
	for i, u := range id.reals {
		if got := nw.order[i]; got != u {
			return fmt.Errorf("peer set mismatch at %d: %016x vs %016x", i, uint64(got), uint64(u))
		}
		if got, want := nw.node(u).MaxLevel(), id.levelAt(i); got != want {
			return fmt.Errorf("peer %016x: m = %d, want %d", uint64(u), got, want)
		}
	}
	// Every peer has its stable span, so walking the stable nodes visits
	// each level slot of each peer once: a slot holding no virtual node
	// is an error, not a level to skip.
	var buf [4]ref.Ref
	for k, x := range id.nodes {
		v := nw.node(x.Owner()).VNode(x.Level())
		if v == nil {
			return fmt.Errorf("node %s: missing", exact(x))
		}
		if want := id.nuAt(k, buf[:0]); !slices.Equal(v.Nu.Slice(), want) {
			return fmt.Errorf("node %s: Nu = %s, want %s", exact(x), exactSet(v.Nu), exactSet(ref.NewSet(want...)))
		}
		// Ring edges: the two edges between the global extremes are
		// required; additionally, the stable state carries in-flight
		// ring edges — the extremes re-create their edge every round at
		// their locally known max/min, and the edge travels hop by hop
		// to the true extreme where it is absorbed — so any other ring
		// edge must target one of the two global extremes.
		if y, ok := id.ringAt(k); ok && !v.Nr.Contains(y) {
			return fmt.Errorf("node %s: missing ring edge to %s", exact(x), exact(y))
		}
		mn, mx := id.nodes[0], id.nodes[len(id.nodes)-1]
		for _, y := range v.Nr.Slice() {
			if y != mn && y != mx {
				return fmt.Errorf("node %s: stray ring edge to %s", exact(x), exact(y))
			}
		}
		wrl, wrr, hasRL, hasRR := id.closestReals(k)
		if v.HasRL != hasRL || hasRL && v.RL != wrl {
			return fmt.Errorf("node %s: rl = %s(%v), want %s(%v)", exact(x), exact(v.RL), v.HasRL, exact(wrl), hasRL)
		}
		if v.HasRR != hasRR || hasRR && v.RR != wrr {
			return fmt.Errorf("node %s: rr = %s(%v), want %s(%v)", exact(x), exact(v.RR), v.HasRR, exact(wrr), hasRR)
		}
	}
	return nil
}

// exact renders a reference for the errors above with its full hex
// owner and level: ref.String rounds to six digits, so adjacent peers
// such as u and u-1 would print alike.
func exact(r ref.Ref) string { return fmt.Sprintf("%016x@%d", uint64(r.Owner()), r.Level()) }

func exactSet(s ref.Set) string {
	b := []byte{'['}
	for i, r := range s.Slice() {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, exact(r)...)
	}
	return string(append(b, ']'))
}

// ChordEdgeSlots counts Chord's edge slots with multiplicity: one
// successor pointer per peer plus one finger slot per virtual level.
// Section 2.2's budget |E_u ∪ E_r| <= 4 |E_Chord| counts slots this
// way (each Re-Chord node contributes at most 4 outgoing unmarked
// edges, and there is one Re-Chord node per Chord slot).
func (id *Ideal) ChordEdgeSlots() int {
	return len(id.nodes)
}

// ChordGraph builds the classic Chord topology (Section 1.1) over the
// peers: successor edges plus the fingers p_i(v), the node closest
// clockwise to v + 1/2^i. Used to verify Fact 2.1 (Chord is a subgraph
// of stable Re-Chord projected on real nodes).
func (id *Ideal) ChordGraph() *graph.Graph {
	g := graph.New()
	for _, u := range id.reals {
		g.AddNode(ref.Real(u))
	}
	if len(id.reals) < 2 {
		return g
	}
	for i, u := range id.reals {
		succ := id.reals[(i+1)%len(id.reals)]
		g.AddEdge(ref.Real(u), ref.Real(succ), graph.Unmarked)
		for lvl, m := 1, id.levelAt(i); lvl <= m; lvl++ {
			target := ident.Sibling(u, lvl)
			f := ident.Successor(id.reals, target)
			if f != u {
				g.AddEdge(ref.Real(u), ref.Real(f), graph.Unmarked)
			}
		}
	}
	return g
}
