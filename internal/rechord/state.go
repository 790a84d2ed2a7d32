// Package rechord implements the Re-Chord self-stabilizing overlay
// network of Kniesburges, Koutsopoulos and Scheideler (SPAA 2011).
//
// Every peer (real node) simulates a set of virtual nodes u_i at
// identifiers u + 1/2^i (mod 1); the protocol maintains, per virtual
// node, three outgoing edge sets — unmarked (N_u), ring (N_r) and
// connection (N_c) — and repairs them with six purely local rules per
// synchronous round:
//
//  1. Virtual Nodes: create u_1..u_m, delete levels beyond m.
//  2. Overlapping Neighborhood: hand edges to the sibling closest to
//     the target.
//  3. Closest Real Neighbor: find and propagate rl/rr, the closest
//     real nodes to the left and right.
//  4. Linearization: sort the unmarked neighborhood, forward far edges
//     toward their endpoints, mirror the closest ones.
//  5. Ring Edge: let the extreme nodes close the sorted list into a
//     ring via marked ring edges.
//  6. Connection Edges: keep contiguous virtual siblings connected
//     through the nodes between them.
//
// From any state in which the peers are weakly connected, the network
// converges to the unique stable Re-Chord topology, which contains
// Chord as a subgraph (Fact 2.1).
package rechord

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// VNode is the state of one virtual node (level 0 is the real node
// itself): its three outgoing edge sets and its current belief about
// its closest real neighbors.
type VNode struct {
	Self ref.Ref
	Nu   ref.Set // unmarked edges E_u
	Nr   ref.Set // ring edges E_r
	Nc   ref.Set // connection edges E_c

	// RL/RR are the node's variables rl(u_i) and rr(u_i): the closest
	// real node to the left resp. right, recomputed by rule 3 every
	// round. HasRL/HasRR report whether they are set.
	RL, RR       ref.Ref
	HasRL, HasRR bool
}

func newVNode(owner ident.ID, level int) *VNode {
	return &VNode{Self: ref.Virtual(owner, level)}
}

// addNu inserts r into N_u, refusing self-loops.
func (v *VNode) addNu(r ref.Ref) {
	if r != v.Self {
		v.Nu.Add(r)
	}
}

func (v *VNode) addNr(r ref.Ref) {
	if r != v.Self {
		v.Nr.Add(r)
	}
}

func (v *VNode) addNc(r ref.Ref) {
	if r != v.Self {
		v.Nc.Add(r)
	}
}

// addEdge inserts r into the edge set of the kind, refusing self-loops.
func (v *VNode) addEdge(k graph.Kind, r ref.Ref) {
	switch k {
	case graph.Unmarked:
		v.addNu(r)
	case graph.Ring:
		v.addNr(r)
	case graph.Connection:
		v.addNc(r)
	}
}

// sets returns the three edge sets, indexed by graph.Kind.
func (v *VNode) sets() [3]*ref.Set {
	return [...]*ref.Set{graph.Unmarked: &v.Nu, graph.Ring: &v.Nr, graph.Connection: &v.Nc}
}

func (v *VNode) clone() *VNode {
	c := &VNode{
		Self:  v.Self,
		Nu:    v.Nu.Clone(),
		Nr:    v.Nr.Clone(),
		Nc:    v.Nc.Clone(),
		RL:    v.RL,
		RR:    v.RR,
		HasRL: v.HasRL,
		HasRR: v.HasRR,
	}
	return c
}

func (v *VNode) equal(o *VNode) bool {
	return v.Self == o.Self &&
		v.HasRL == o.HasRL && v.HasRR == o.HasRR &&
		(!v.HasRL || v.RL == o.RL) &&
		(!v.HasRR || v.RR == o.RR) &&
		v.Nu.Equal(o.Nu) && v.Nr.Equal(o.Nr) && v.Nc.Equal(o.Nc)
}

// RealNode is a peer: its immutable identifier and the virtual nodes
// it currently simulates. vnodes is indexed by level; entries can be
// nil holes between seeding and the peer's first rule execution (rule
// 1 makes levels 0..m contiguous), but level 0 and the last entry are
// always present, so MaxLevel is len(vnodes)-1.
type RealNode struct {
	id     ident.ID
	vnodes []*VNode

	// idx/gen are the peer's slot in the network's interner: together
	// they form its handle, the compact incarnation-safe reference the
	// execution layer addresses it by (see intern.go).
	idx, gen uint32

	// in holds the peer's standing inbox as per-sender buckets, sorted
	// by the sender's handle: the bucket for sender s points at s's
	// contribution (the immutable block of s's messages to this peer,
	// see flow.go) as emitted at its most recently executed round. In the
	// synchronous model a peer at a local fixed point regenerates the
	// same output every round, so the bucket doubles as that repeating
	// flow: the scheduler replaces a bucket only when the sender's
	// output actually changes, and a skipped (clean) peer's pending
	// inbox is exactly the union of its buckets — identical to what
	// running every peer would have delivered. Handle keys make a bucket from a
	// departed incarnation impossible to confuse with its slot's next
	// tenant.
	in []bucket
	// inbox holds one-shot messages outside the standing flow: leave
	// goodbyes and the final output of a departed peer. They are
	// consumed on delivery; buckets are not.
	inbox []Message
	// lastFlow records the messages generated in the peer's most recent
	// executed round as its contributions sorted by recipient, for the
	// local stability check and the scheduler's output diff; recipients'
	// buckets point at the same contributions. Derived state, not part
	// of global-state equality.
	lastFlow []*contrib

	// dirty marks the peer as a member of the round frontier: its
	// inputs may have changed since it last ran, so the next Step must
	// run its rules. Managed by Network.markDirty and Step.
	dirty bool

	// remote marks a peer that runs elsewhere: a partition's stub, whose
	// host runs its rules. A stub is never on the frontier and holds no
	// bucket (markDirtyIdx, planOp, apply). Set when the peer joins or
	// its network becomes a partition (Network.hosted); never in the
	// monolith.
	remote bool

	// epoch is the peer's change epoch: a network-wide monotone stamp
	// taken whenever the peer's own protocol state (its virtual nodes
	// with their edge sets and rl/rr) may have changed. Consumers such
	// as routing.Cache compare epochs for equality to decide whether
	// derived state (a routing table) is still fresh. Like lastFlow it
	// is derived scheduler state, outside global-state equality.
	epoch int

	// purged is the purge mark: Network.shrinks+1 as of the peer's last
	// purge that found nothing stale, or 0 for none. While it matches,
	// the peer's sets hold no stale reference and neither do its
	// buckets, so a deliver with an empty inbox brings none in and the
	// purge is skipped (deliverPhase). A batch commit's installs keep it
	// under every scheduler (apply), and so do a partition's installs of
	// a remote sender's batch output (Partition.applyRun); whatever could
	// break it clears it: AddPeer's re-materialization (rewriteBucket),
	// SeedEdge, and Wake, which out-of-band writes call.
	purged uint64
}

// ID returns the peer's identifier.
func (n *RealNode) ID() ident.ID { return n.id }

// h returns the peer's handle: its interner slot plus the generation
// of its current incarnation.
func (n *RealNode) h() handle { return mkHandle(n.idx, n.gen) }

// Levels returns the levels of the currently simulated virtual nodes
// in increasing order (0 is always present).
func (n *RealNode) Levels() []int {
	return n.levelsInto(make([]int, 0, len(n.vnodes)))
}

// levelsInto is Levels reusing the given buffer.
func (n *RealNode) levelsInto(buf []int) []int {
	buf = buf[:0]
	for l, v := range n.vnodes {
		if v != nil {
			buf = append(buf, l)
		}
	}
	return buf
}

// MaxLevel returns the current m: the highest simulated level. The
// last vnodes entry is non-nil by invariant.
func (n *RealNode) MaxLevel() int { return len(n.vnodes) - 1 }

// landing returns the virtual node a message to the level extends: the
// level's own, or u_m, the closest surviving one, when the peer no
// longer simulates it (rule 1's merge semantics).
func (n *RealNode) landing(level int) *VNode {
	if level < len(n.vnodes) {
		if v := n.vnodes[level]; v != nil {
			return v
		}
	}
	return n.vnodes[len(n.vnodes)-1]
}

// VNode returns the virtual node at the level, or nil.
func (n *RealNode) VNode(level int) *VNode {
	if level < 0 || level >= len(n.vnodes) {
		return nil
	}
	return n.vnodes[level]
}

// ensureLevel grows the vnode slice (with nil holes) so that `level`
// is indexable, returning the (possibly fresh) virtual node there.
func (n *RealNode) ensureLevel(level int) *VNode {
	for len(n.vnodes) <= level {
		n.vnodes = append(n.vnodes, nil)
	}
	v := n.vnodes[level]
	if v == nil {
		v = newVNode(n.id, level)
		n.vnodes[level] = v
	}
	return v
}

// siblings returns refs to all currently simulated virtual nodes
// (including level 0), sorted by identifier.
func (n *RealNode) siblings() []ref.Ref {
	return n.siblingsInto(nil)
}

// siblingsInto is siblings reusing the given buffer.
func (n *RealNode) siblingsInto(buf []ref.Ref) []ref.Ref {
	buf = buf[:0]
	for l, v := range n.vnodes {
		if v != nil {
			buf = append(buf, ref.Virtual(n.id, l))
		}
	}
	slices.SortFunc(buf, ref.Ref.Compare)
	return buf
}

// vnodesByLevel returns the virtual nodes ordered by level.
func (n *RealNode) vnodesByLevel() []*VNode {
	out := make([]*VNode, 0, len(n.vnodes))
	for _, v := range n.vnodes {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// knownRealsInto collects the identifiers of all real nodes this peer
// has an outgoing edge to (any marking), used to compute m, into buf
// without deduplicating (ident.LevelFor takes a minimum, so duplicates
// are harmless) to keep rule 1 allocation-free.
func (n *RealNode) knownRealsInto(buf []ident.ID) []ident.ID {
	buf = buf[:0]
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, s := range v.sets() {
			for _, r := range s.Slice() {
				if r.IsReal() && r.Owner() != n.id {
					buf = append(buf, r.Owner())
				}
			}
		}
	}
	return buf
}

// eachPending calls f for every message pending at the peer, in
// place: the one-shot inbox, then the standing buckets' messages
// straight off the senders' contributions. The order is unspecified; delivery is a
// commutative set-union, and consumers that need a canonical order sort
// what they collect.
func (n *RealNode) eachPending(f func(Message)) {
	for _, m := range n.inbox {
		f(m)
	}
	for _, b := range n.in {
		for _, r := range b.c.recs() {
			f(r.Message(n.id))
		}
	}
}

func (n *RealNode) clone() *RealNode {
	c := &RealNode{id: n.id, idx: n.idx, gen: n.gen, vnodes: make([]*VNode, len(n.vnodes))}
	for l, v := range n.vnodes {
		if v != nil {
			c.vnodes[l] = v.clone()
		}
	}
	// Contributions are immutable, so the clone's buckets share them;
	// the clone is outside the engine's flow accounting and must not
	// outlive the batch (the epilogue recycles the blocks it drops).
	c.in = slices.Clone(n.in)
	c.inbox = append([]Message(nil), n.inbox...)
	// lastFlow is derived scheduler state with no consumer on clones;
	// it stays nil.
	return c
}

// vnodesEqual compares the peer's own protocol state (virtual nodes with
// their edge sets and rl/rr) against another peer's.
func (n *RealNode) vnodesEqual(o []*VNode) bool {
	if len(n.vnodes) != len(o) {
		return false
	}
	for l, v := range n.vnodes {
		ov := o[l]
		if (v == nil) != (ov == nil) {
			return false
		}
		if v != nil && !v.equal(ov) {
			return false
		}
	}
	return true
}

// compareMessages is the canonical message order: the destination, the
// kind, then the node inserted. Any total order on the content serves
// (consumers only need equal multisets to sort equal).
func compareMessages(a, b Message) int {
	return cmp.Or(a.To.Compare(b.To), cmp.Compare(a.Kind, b.Kind), a.Add.Compare(b.Add))
}

// Message is a delayed assignment (the paper's "A <= B"): an edge
// insertion that becomes visible at the target at the start of the
// next round.
type Message struct {
	To   ref.Ref    // destination node (may be virtual)
	Kind graph.Kind // which edge set of the destination to extend
	Add  ref.Ref    // the node to insert
}

// String renders the message for traces.
func (m Message) String() string {
	return fmt.Sprintf("%s: add %s to %s", m.To, m.Add, m.Kind)
}
