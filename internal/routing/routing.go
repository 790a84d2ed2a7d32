// Package routing emulates Chord on top of a stabilized Re-Chord
// network, demonstrating the paper's claim that "the final state of
// Re-Chord contains Chord as a subgraph, so it can faithfully emulate
// any applications on top of Chord" (Theorem 1.1).
//
// A real node's routing table is derived purely from its own Re-Chord
// state: for every virtual node u_i, the closest right real neighbor
// rr(u_i) is exactly Chord's finger p_i(u) (the first real node
// clockwise of u + 1/2^i), and rr(u_0) is the Chord successor.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
)

// ErrUnknownPeer reports a table or a lookup asked of a peer that is not
// in the network. A resolver returns it (wrapped) for a lookup whose
// home peer is not a member; a lookup that merely hops onto a departed
// peer mid-route is a routing failure and does not match it.
var ErrUnknownPeer = errors.New("routing: unknown peer")

// Table is one peer's Chord view extracted from its Re-Chord state.
type Table struct {
	Self ident.ID
	// gen and epoch are the incarnation and change epoch the table was
	// read under (rechord.Network.PeerSlotEpoch): it is fresh exactly
	// while the peer still reports both.
	gen   uint32
	epoch int
	// Successor is the first real node clockwise (rr of the real
	// node).
	Successor ident.ID
	HasSucc   bool
	// Fingers maps level i to rr(u_i), the peer following self+1/2^i.
	Fingers map[int]ident.ID

	// Wrap captures the ring-closing rule when this peer owns the
	// globally smallest node v: v has no left unmarked neighbor and a
	// ring edge to the globally largest node t, so the wrap segment
	// (t, v] contains no node at all and its keys belong to WrapOwner
	// (v's peer when v is real, else v's closest right real). Only the
	// global minimum node's owner has it set.
	WrapOwner        ident.ID
	WrapFrom, WrapTo ident.ID
	HasWrap          bool

	// OwnsMinNode marks the peer that owns the globally smallest node
	// (no unmarked neighbor to its left), whether or not the ring edge
	// needed for the interval rule above is present; MinNodeOwner is
	// the peer answering for that node. A descent terminates here
	// unconditionally — any key stranded above every real peer belongs
	// to the global minimum's closest right real (Route's
	// routeToGlobalMin does exactly this on raw state).
	MinNodeOwner ident.ID
	OwnsMinNode  bool

	// MinKnown is the smallest-identifier node this peer knows (own
	// virtual nodes, unmarked and ring neighbors, closest left reals)
	// and its owner. Lookups stranded in the top identifier segment —
	// where rr, being linear, is undefined — descend along MinKnown
	// hops toward the global minimum node, exactly the monotone
	// descent Route performs on raw state.
	MinKnownID    ident.ID
	MinKnownOwner ident.ID

	// hops is the deduplicated union of successor and fingers, the
	// candidate next-hop set table-based routing scans.
	hops []ident.ID
}

// TableOf extracts the routing table of the peer. The network should
// be stable for the table to equal Chord's.
func TableOf(nw *rechord.Network, id ident.ID) (*Table, error) {
	_, gen, epoch, ok := nw.PeerSlotEpoch(id)
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownPeer, id)
	}
	n := nw.Peer(id)
	t := &Table{Self: id, gen: gen, epoch: epoch, Fingers: make(map[int]ident.ID)}
	for _, lvl := range n.Levels() {
		v := n.VNode(lvl)
		if !v.HasRR {
			// A virtual node in the top of the identifier space has no
			// real node linearly to its right; Chord's corresponding
			// finger wraps to the smallest peer, which is covered by
			// the wrapped deeper virtual nodes below.
			continue
		}
		if lvl != 0 {
			t.Fingers[lvl] = v.RR.Owner()
		}
	}
	// The Chord successor is rr(u_m): in the stable state the deepest
	// virtual node lies strictly between the peer and its clockwise
	// successor — including across the 1.0 wraparound, where u_m is a
	// wrapped identifier just below the successor.
	if um := n.VNode(n.MaxLevel()); um != nil && um.HasRR {
		t.Successor = um.RR.Owner()
		t.HasSucc = true
	} else if u0 := n.VNode(0); u0 != nil && u0.HasRR {
		t.Successor = u0.RR.Owner()
		t.HasSucc = true
	}
	// Wrap rule and descent hop (see the field docs): both are read off
	// the peer's own state only, like everything else in the table.
	t.MinKnownID, t.MinKnownOwner = id, id
	for _, lvl := range n.Levels() {
		v := n.VNode(lvl)
		vpos := v.Self.ID()
		if own, ok := globalMinOwner(v); ok {
			if _, hasLeft := v.Nu.MaxBelow(vpos); !hasLeft {
				t.MinNodeOwner, t.OwnsMinNode = own, true
				for _, r := range v.Nr.Slice() {
					if r.ID() > vpos {
						t.WrapFrom, t.WrapTo = r.ID(), vpos
						t.WrapOwner, t.HasWrap = own, true
					}
				}
			}
		}
		consider := func(y ref.Ref) {
			if y.ID() < t.MinKnownID {
				t.MinKnownID, t.MinKnownOwner = y.ID(), y.Owner()
			}
		}
		consider(v.Self)
		for _, y := range v.Nu.Slice() {
			consider(y)
		}
		for _, y := range v.Nr.Slice() {
			consider(y)
		}
		if v.HasRL {
			consider(v.RL)
		}
	}
	t.buildHops()
	return t, nil
}

// buildHops precomputes the deduplicated candidate next-hop set so
// table-based routing pays the collection cost once per table build,
// not once per hop. The set is kept in identifier order, so two tables
// read off the same state are equal field by field.
func (t *Table) buildHops() {
	seen := make(map[ident.ID]bool, len(t.Fingers)+1)
	t.hops = t.hops[:0]
	if t.HasSucc && t.Successor != t.Self {
		seen[t.Successor] = true
		t.hops = append(t.hops, t.Successor)
	}
	for _, f := range t.Fingers {
		if f != t.Self && !seen[f] {
			seen[f] = true
			t.hops = append(t.hops, f)
		}
	}
	ident.Sort(t.hops)
}

// Route performs a Chord-style lookup for key starting at from,
// hopping only along edges present in the Re-Chord state (a hop is a
// move to a different peer; a peer consults all of the virtual nodes
// it simulates, including moving the lookup onto one of its own
// wrapped virtual nodes, for free). It returns the peer responsible
// for the key (its ring successor) and the path of peers visited, of
// length O(log n) on a stable network.
//
// Termination rules, both locally checkable and globally sound on a
// stable network:
//
//   - key in (v, rr(v)]: rr(v) is the first real node linearly above
//     v, so no real node lies strictly between — rr(v) owns the key.
//   - v has no left neighbor (v is the global minimum node) and holds
//     a ring edge to t > v (the global maximum): the wrap segment
//     (t, v] contains no node at all, so keys there belong to rr(v).
//
// When the lookup sits in the top identifier segment with no real node
// linearly above (rr undefined), the owner is the globally smallest
// real node, and the lookup descends along ring edges and minimum
// known nodes to the global minimum, whose rr is exactly that peer.
func Route(nw *rechord.Network, from ident.ID, key ident.ID) (owner ident.ID, path []ident.ID, err error) {
	if nw.Peer(from) == nil {
		return 0, nil, fmt.Errorf("%w %s", ErrUnknownPeer, from)
	}
	if nw.NumPeers() == 1 {
		return from, []ident.ID{from}, nil
	}
	if key == from {
		return from, []ident.ID{from}, nil
	}
	peer := from
	pos := from // position of the node the lookup currently sits at
	path = []ident.ID{from}
	limit := 8*nw.NumPeers() + 16

	terminate := func(n *rechord.RealNode) (ident.ID, bool) {
		for _, lvl := range n.Levels() {
			v := n.VNode(lvl)
			vpos := v.Self.ID()
			if v.HasRR && ident.InRightHalfOpen(key, vpos, v.RR.ID()) {
				return v.RR.Owner(), true
			}
			// Wrap rule at the global minimum node: nothing lies in
			// (t, v], so keys there belong to v itself if it is real,
			// otherwise to the first real above it.
			if own, ok := globalMinOwner(v); ok {
				if _, hasLeft := v.Nu.MaxBelow(vpos); !hasLeft {
					for _, t := range v.Nr.Slice() {
						if t.ID() > vpos && ident.InRightHalfOpen(key, t.ID(), vpos) {
							return own, true
						}
					}
				}
			}
		}
		return 0, false
	}

	for iter := 0; iter <= limit; iter++ {
		n := nw.Peer(peer)
		if n == nil {
			// A stale edge forwarded the walk to a departed peer: the
			// state is mid-repair and this lookup cannot complete. An
			// error (not a panic) lets callers retry or fall back.
			return 0, path, fmt.Errorf("routing: walk reached departed peer %s", peer)
		}
		if own, ok := terminate(n); ok {
			return own, path, nil
		}
		// Greedy step over everything the peer knows, including its
		// own sibling virtual nodes (free intra-peer moves).
		var best ref.Ref
		bestOK := false
		consider := func(y ref.Ref) {
			if y.ID() == pos {
				return
			}
			if !ident.Between(y.ID(), pos, key) && y.ID() != key {
				return
			}
			if !bestOK || ident.Dist(pos, y.ID()) > ident.Dist(pos, best.ID()) {
				best, bestOK = y, true
			}
		}
		for _, lvl := range n.Levels() {
			v := n.VNode(lvl)
			consider(v.Self)
			for _, y := range v.Nu.Slice() {
				consider(y)
			}
			for _, y := range v.Nr.Slice() {
				consider(y)
			}
			if v.HasRL {
				consider(v.RL)
			}
			if v.HasRR {
				consider(v.RR)
			}
		}
		if bestOK {
			pos = best.ID()
			if best.Owner() != peer {
				peer = best.Owner()
				path = append(path, peer)
			}
			continue
		}
		// Stuck: on a stable network this means the current position
		// lies in the top segment (no real node linearly above), so
		// the key belongs to the globally smallest real node. Descend
		// to the global minimum node, whose rr names that peer.
		return routeToGlobalMin(nw, peer, pos, path, limit-iter)
	}
	return 0, path, fmt.Errorf("routing: lookup for %s exceeded %d steps", key, limit)
}

// routeToGlobalMin walks from the given position to the global minimum
// node by always moving to the smallest node the current peer knows
// (the same monotone descent ring-edge forwarding uses), and returns
// that node's closest right real — the globally smallest peer.
func routeToGlobalMin(nw *rechord.Network, peer ident.ID, pos ident.ID, path []ident.ID, budget int) (ident.ID, []ident.ID, error) {
	for iter := 0; iter <= budget+len(path)*2+8; iter++ {
		n := nw.Peer(peer)
		if n == nil {
			return 0, path, fmt.Errorf("routing: descent reached departed peer %s", peer)
		}
		var best ref.Ref
		bestOK := false
		for _, lvl := range n.Levels() {
			v := n.VNode(lvl)
			vpos := v.Self.ID()
			if own, ok := globalMinOwner(v); ok {
				if _, hasLeft := v.Nu.MaxBelow(vpos); !hasLeft {
					// v is the global minimum node: the smallest real
					// peer is v itself or its closest right real.
					return own, path, nil
				}
			}
			consider := func(y ref.Ref) {
				if y.ID() >= pos {
					return
				}
				if !bestOK || y.ID() < best.ID() {
					best, bestOK = y, true
				}
			}
			consider(v.Self)
			for _, y := range v.Nu.Slice() {
				consider(y)
			}
			for _, y := range v.Nr.Slice() {
				consider(y)
			}
			if v.HasRL {
				consider(v.RL)
			}
		}
		if !bestOK {
			return 0, path, fmt.Errorf("routing: descent stuck at peer %s (pos %s)", peer, pos)
		}
		pos = best.ID()
		if best.Owner() != peer {
			peer = best.Owner()
			path = append(path, peer)
		}
	}
	return 0, path, fmt.Errorf("routing: descent did not reach the global minimum")
}

// globalMinOwner returns the peer that owns all keys at or below the
// node v, assuming v is the global minimum node: v's own peer when v
// is real, else v's closest right real.
func globalMinOwner(v *rechord.VNode) (ident.ID, bool) {
	if v.Self.IsReal() {
		return v.Self.Owner(), true
	}
	if v.HasRR {
		return v.RR.Owner(), true
	}
	return 0, false
}

// Owner returns the peer responsible for the key: its clockwise
// successor among all peers. This is the consistent-hashing contract
// the DHT builds on.
func Owner(nw *rechord.Network, key ident.ID) (ident.ID, error) {
	peers := nw.Peers()
	if len(peers) == 0 {
		return 0, fmt.Errorf("routing: empty network")
	}
	return ident.Successor(peers, key), nil
}
