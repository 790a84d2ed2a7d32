package rechord

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Ideal is the unique stable Re-Chord topology for a fixed set of
// peers, computed directly from the sorted identifiers (the oracle the
// experiments compare converged states against, and the basis of the
// "almost stable" detector of Section 5).
type Ideal struct {
	reals []ident.ID // sorted peer identifiers
	nodes []ref.Ref  // all real+virtual nodes, sorted by Less
	level map[ident.ID]int

	// nu holds the desired unmarked out-neighborhood per node; ring
	// the desired ring edges; rl/rr the desired closest-real values.
	nu   map[ref.Ref]ref.Set
	ring map[ref.Ref]ref.Set
	rl   map[ref.Ref]ref.Ref
	rr   map[ref.Ref]ref.Ref
}

// ComputeIdeal builds the stable topology for the given peers.
func ComputeIdeal(reals []ident.ID) *Ideal {
	id := &Ideal{
		reals: append([]ident.ID(nil), reals...),
		level: make(map[ident.ID]int),
		nu:    make(map[ref.Ref]ref.Set),
		ring:  make(map[ref.Ref]ref.Set),
		rl:    make(map[ref.Ref]ref.Ref),
		rr:    make(map[ref.Ref]ref.Ref),
	}
	ident.Sort(id.reals)
	if len(id.reals) == 0 {
		return id
	}

	// m per peer is determined by the distance to the clockwise real
	// successor (the closest real node the peer knows in the stable
	// state).
	for i, u := range id.reals {
		succ := id.reals[(i+1)%len(id.reals)]
		m := ident.MaxLevel
		if succ != u {
			m = ident.LevelForDist(ident.Dist(u, succ))
		}
		id.level[u] = m
		for l := 0; l <= m; l++ {
			id.nodes = append(id.nodes, ref.Virtual(u, l))
		}
	}
	sort.Slice(id.nodes, func(i, j int) bool { return id.nodes[i].Less(id.nodes[j]) })

	// Sorted-list neighborhoods plus closest reals.
	for k, x := range id.nodes {
		var nu ref.Set
		if k > 0 {
			nu.Add(id.nodes[k-1])
		}
		if k+1 < len(id.nodes) {
			nu.Add(id.nodes[k+1])
		}
		if v, ok := id.closestRealLeft(k); ok {
			nu.Add(v)
			id.rl[x] = v
		}
		if v, ok := id.closestRealRight(k); ok {
			nu.Add(v)
			id.rr[x] = v
		}
		nu.Remove(x)
		id.nu[x] = nu
	}

	// Ring edges: the global maximum holds a ring edge to the global
	// minimum (which misses a left neighbor) and vice versa.
	if len(id.nodes) > 1 {
		mn, mx := id.nodes[0], id.nodes[len(id.nodes)-1]
		s := ref.NewSet(mn)
		id.ring[mx] = s
		s2 := ref.NewSet(mx)
		id.ring[mn] = s2
	}
	return id
}

func (id *Ideal) closestRealLeft(k int) (ref.Ref, bool) {
	x := id.nodes[k].ID()
	// reals is sorted; find max real strictly below x.
	i := sort.Search(len(id.reals), func(i int) bool { return id.reals[i] >= x })
	if i == 0 {
		return ref.Ref{}, false
	}
	return ref.Real(id.reals[i-1]), true
}

func (id *Ideal) closestRealRight(k int) (ref.Ref, bool) {
	x := id.nodes[k].ID()
	i := sort.Search(len(id.reals), func(i int) bool { return id.reals[i] > x })
	if i == len(id.reals) {
		return ref.Ref{}, false
	}
	return ref.Real(id.reals[i]), true
}

// Nodes returns all nodes of the stable topology in increasing order.
func (id *Ideal) Nodes() []ref.Ref { return id.nodes }

// Level returns the stable m of the peer.
func (id *Ideal) Level(u ident.ID) int { return id.level[u] }

// NumVirtual returns the total number of virtual nodes (levels >= 1).
func (id *Ideal) NumVirtual() int {
	n := 0
	for _, m := range id.level {
		n += m
	}
	return n
}

// Nu returns the desired unmarked out-neighborhood of a node.
func (id *Ideal) Nu(x ref.Ref) ref.Set { return id.nu[x] }

// Graph returns the desired topology as a graph over all nodes, with
// unmarked and ring edges (connection edges are transient flow and not
// part of the target).
func (id *Ideal) Graph() *graph.Graph {
	g := graph.New()
	for _, x := range id.nodes {
		g.AddNode(x)
		for _, y := range id.nu[x].Slice() {
			g.AddEdge(x, y, graph.Unmarked)
		}
		for _, y := range id.ring[x].Slice() {
			g.AddEdge(x, y, graph.Ring)
		}
	}
	return g
}

// AlmostStable reports whether every desired edge of the stable
// topology is already present in the network — the paper's "almost
// stable" state of Figure 6 (extra edges are allowed).
func (id *Ideal) AlmostStable(nw *Network) bool {
	for _, x := range id.nodes {
		n := nw.Peer(x.Owner)
		if n == nil {
			return false
		}
		v := n.VNode(x.Level)
		if v == nil {
			return false
		}
		for _, y := range id.nu[x].Slice() {
			if !v.Nu.Contains(y) {
				return false
			}
		}
		for _, y := range id.ring[x].Slice() {
			if !v.Nr.Contains(y) {
				return false
			}
		}
	}
	return true
}

// Matches verifies that the network state is exactly the stable
// topology: the same virtual nodes, exactly the desired unmarked and
// ring edges, and correct rl/rr everywhere. Connection edges are
// steady-state flow and only checked for plausibility (they must point
// from below to an existing node). A nil error means the state is the
// legal stable state.
func (id *Ideal) Matches(nw *Network) error {
	peers := nw.Peers()
	if len(peers) != len(id.reals) {
		return fmt.Errorf("peer count %d, want %d", len(peers), len(id.reals))
	}
	for i, u := range id.reals {
		if peers[i] != u {
			return fmt.Errorf("peer set mismatch at %d: %016x vs %016x", i, uint64(peers[i]), uint64(u))
		}
	}
	exists := make(map[ref.Ref]bool, len(id.nodes))
	for _, x := range id.nodes {
		exists[x] = true
	}
	for _, u := range id.reals {
		n := nw.Peer(u)
		if got, want := n.MaxLevel(), id.level[u]; got != want {
			return fmt.Errorf("peer %016x: m = %d, want %d", uint64(u), got, want)
		}
		for _, l := range n.Levels() {
			x := ref.Virtual(u, l)
			v := n.VNode(l)
			if !v.Nu.Equal(id.nu[x]) {
				return fmt.Errorf("node %s: Nu = %s, want %s", exact(x), exactSet(v.Nu), exactSet(id.nu[x]))
			}
			// Ring edges: the two edges between the global extremes are
			// required; additionally, the stable state carries in-flight
			// ring edges — the extremes re-create their edge every round
			// at their locally known max/min, and the edge travels hop by
			// hop to the true extreme where it is absorbed — so any other
			// ring edge must target one of the two global extremes.
			wantRing := id.ring[x]
			for _, y := range wantRing.Slice() {
				if !v.Nr.Contains(y) {
					return fmt.Errorf("node %s: missing ring edge to %s", exact(x), exact(y))
				}
			}
			if len(id.nodes) > 1 {
				mn, mx := id.nodes[0], id.nodes[len(id.nodes)-1]
				for _, y := range v.Nr.Slice() {
					if y != mn && y != mx {
						return fmt.Errorf("node %s: stray ring edge to %s", exact(x), exact(y))
					}
				}
			}
			if wrl, ok := id.rl[x]; ok {
				if !v.HasRL || v.RL != wrl {
					return fmt.Errorf("node %s: rl = %s(%v), want %s", exact(x), exact(v.RL), v.HasRL, exact(wrl))
				}
			} else if v.HasRL {
				return fmt.Errorf("node %s: rl set to %s, want unset", exact(x), exact(v.RL))
			}
			if wrr, ok := id.rr[x]; ok {
				if !v.HasRR || v.RR != wrr {
					return fmt.Errorf("node %s: rr = %s(%v), want %s", exact(x), exact(v.RR), v.HasRR, exact(wrr))
				}
			} else if v.HasRR {
				return fmt.Errorf("node %s: rr set to %s, want unset", exact(x), exact(v.RR))
			}
			for _, y := range v.Nc.Slice() {
				if !exists[y] {
					return fmt.Errorf("node %s: connection edge to nonexistent %s", exact(x), exact(y))
				}
				if x.ID() >= y.ID() {
					// Connection edges always point from below: created
					// between consecutive siblings and forwarded to nodes
					// strictly below the target.
					return fmt.Errorf("node %s: connection edge to %s points the wrong way", exact(x), exact(y))
				}
			}
		}
	}
	return nil
}

// exact renders a reference for the errors above with its full hex
// owner and level: ref.String rounds to six digits, so adjacent peers
// such as u and u-1 would print alike.
func exact(r ref.Ref) string { return fmt.Sprintf("%016x@%d", uint64(r.Owner), r.Level) }

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
	slots := len(id.reals)
	for _, m := range id.level {
		slots += m
	}
	return slots
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
		for lvl := 1; lvl <= id.level[u]; lvl++ {
			target := ident.Sibling(u, lvl)
			f := ident.Successor(id.reals, target)
			if f != u {
				g.AddEdge(ref.Real(u), ref.Real(f), graph.Unmarked)
			}
		}
	}
	return g
}
