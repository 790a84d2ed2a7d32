package rechord

import (
	"fmt"

	"repro/internal/ident"
)

// This file is the peer interner: the registry that maps the protocol's
// public identifiers (ident.ID, carried inside every ref.Ref and
// message) onto dense uint32 peer indices, so that all hot per-peer
// state — the node table, the published rl/rr view (whose length is
// the peer's level span), frontier membership, standing inbox buckets —
// lives in slices addressed by index instead of hash maps keyed by
// 8-byte IDs or 16-byte refs. One uint64-keyed map (idxOf) remains as
// the single point where an external reference is resolved to an index;
// everything past that resolution is slice indexing.
//
// Slots are recycled through a free-list. Each slot carries a
// generation counter, bumped when the slot is released: a handle
// (index, generation) taken for one incarnation of a peer can never
// accidentally resolve to a later tenant of the same slot, which is
// what keeps Leave/Fail + rejoin-under-the-same-identifier scenarios
// exactly as addressable as they were under the id-keyed maps. The
// protocol itself stays id-addressed (ref.Ref is public and stable);
// handles are an internal execution-layer currency.

// handle packs a peer slot index and its generation into one word: the
// compact, incarnation-safe reference the schedulers and the standing
// inbox buckets key on.
type handle uint64

func mkHandle(idx, gen uint32) handle { return handle(uint64(idx)<<32 | uint64(gen)) }

func (h handle) slot() uint32 { return uint32(h >> 32) }
func (h handle) gen() uint32  { return uint32(h) }

// interner is the registry. The zero value is ready to use.
type interner struct {
	// idxOf is the one remaining id-keyed map: identifier → live slot.
	idxOf map[ident.ID]uint32

	// Dense per-slot state. nodes[i] is nil while slot i is free;
	// ids[i]/gens[i] stay valid for the current tenant.
	nodes []*RealNode
	ids   []ident.ID
	gens  []uint32

	free []uint32 // released slots, reused LIFO
	live int

	// version counts interns and releases: it moves exactly when the
	// membership (or a member's slot or incarnation) does.
	version uint64
}

// reserve pre-sizes the registry for n peers, so bulk builds do not
// rehash and re-grow the dense tables peer by peer.
func (pt *interner) reserve(n int) {
	if pt.idxOf == nil {
		pt.idxOf = make(map[ident.ID]uint32, n)
	}
	if cap(pt.nodes)-len(pt.nodes) < n {
		grow := func(k int) {
			pt.nodes = append(make([]*RealNode, 0, k), pt.nodes...)
			pt.ids = append(make([]ident.ID, 0, k), pt.ids...)
			pt.gens = append(make([]uint32, 0, k), pt.gens...)
		}
		grow(len(pt.nodes) + n)
	}
}

// intern assigns the peer a slot (recycling a released one when
// available) and registers it under its identifier. The caller must
// have checked the identifier is not already present.
func (pt *interner) intern(n *RealNode) uint32 {
	if pt.idxOf == nil {
		pt.idxOf = make(map[ident.ID]uint32)
	}
	var i uint32
	if k := len(pt.free); k > 0 {
		i = pt.free[k-1]
		pt.free = pt.free[:k-1]
		pt.nodes[i] = n
		pt.ids[i] = n.id
	} else {
		i = uint32(len(pt.nodes))
		pt.nodes = append(pt.nodes, n)
		pt.ids = append(pt.ids, n.id)
		pt.gens = append(pt.gens, 0)
	}
	n.idx = i
	n.gen = pt.gens[i]
	pt.idxOf[n.id] = i
	pt.live++
	pt.version++
	return i
}

// release frees the peer's slot and bumps its generation, so every
// handle issued for this incarnation stops resolving immediately. The
// node object keeps its idx/gen fields: its own handle (now stale) is
// still needed by removePeer to find the buckets it installed.
func (pt *interner) release(n *RealNode) {
	i := n.idx
	if pt.nodes[i] != n {
		panic(fmt.Sprintf("rechord: releasing peer %s from slot %d it does not hold", n.id, i))
	}
	delete(pt.idxOf, n.id)
	pt.nodes[i] = nil
	pt.gens[i]++
	pt.free = append(pt.free, i)
	pt.live--
	pt.version++
}

// lookup resolves an identifier to its live slot.
func (pt *interner) lookup(id ident.ID) (uint32, bool) {
	i, ok := pt.idxOf[id]
	return i, ok
}

// node returns the live peer registered under the identifier, or nil.
func (pt *interner) node(id ident.ID) *RealNode {
	if i, ok := pt.idxOf[id]; ok {
		return pt.nodes[i]
	}
	return nil
}

// byHandle resolves a handle strictly: it returns the node only while
// the slot still holds the same incarnation the handle was taken for.
func (pt *interner) byHandle(h handle) *RealNode {
	i := h.slot()
	if uint64(i) < uint64(len(pt.nodes)) && pt.gens[i] == h.gen() {
		return pt.nodes[i]
	}
	return nil
}

// span is the current size of the slot space (live + free), the bound
// consumers sizing slot-indexed side tables need.
func (pt *interner) span() int { return len(pt.nodes) }
