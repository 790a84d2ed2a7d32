package rechord

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/ref"
)

// This file is the inverted dependency index: for every identifier that
// appears as the owner of a reference somewhere in the network, the set
// of peer slots whose state mentions it — in their virtual nodes' edge
// sets (Nu/Nr) or in the standing inbox buckets stored at them. The
// index turns wakeDependents from a full scan over every clean peer's
// edge sets into O(|changed| x avg-fanin) lookups, which is what keeps
// barrier cost frontier-proportional as n grows.
//
// Granularity is the referenced OWNER identifier, not the exact ref:
// references can target identifiers that are not (or no longer) in the
// network, so keying by interner slot would lose exactly the
// departed-peer and rejoin wakes that matter most. For owner-level
// changes (departure, arrival, level-set change) the dependents list is
// precisely the scan's wake set; for published rl/rr changes of a
// single virtual node the list is a superset of candidates, and each
// candidate is verified with holdsRef before waking — so the indexed
// wake set equals the scan's exactly, which TestWakeIndexMatchesScan
// asserts.
//
// The one-shot inbox is intentionally NOT indexed: a peer with a
// non-empty inbox is always dirty (routeMessage, delivery events and
// removePeer's final flush all mark the recipient), and wakeDependents
// only considers clean peers. The scan reads the inbox only to cover
// the same (vacuous) case.
//
// Maintenance points:
//   - edge sets: the barrier's prepare merges every active peer's sets
//     against its pre-round image (diffImage) and emits a delta per
//     reference that appeared or vanished; SeedEdge adds its one new
//     reference and removePeer walks the departing peer's sets. Nothing
//     else updates them, so a direct write to a peer's sets outside
//     these points must adjust the index itself;
//   - buckets: every bucket write is planned by planOp, which emits the
//     index deltas alongside the op (see barrier.go).

// depEntry is one dependent peer slot with the number of references it
// holds to the indexed identifier.
type depEntry struct {
	peer uint32
	cnt  uint32
}

// depIndex maps identifiers to their dependents. Identifiers get dense
// keys through keyOf (recycled via a free list when their last dependent
// disappears); each dependents list is kept sorted by slot so updates
// are binary searches. Reference counts commute, so the stored state
// after a batch of deltas is independent of their order.
type depIndex struct {
	keyOf map[ident.ID]uint32
	deps  [][]depEntry
	free  []uint32
}

// add records k more references from the peer slot to id.
func (d *depIndex) add(id ident.ID, peer uint32, k uint32) {
	if k == 0 {
		return
	}
	if d.keyOf == nil {
		d.keyOf = make(map[ident.ID]uint32)
	}
	key, ok := d.keyOf[id]
	if !ok {
		if n := len(d.free); n > 0 {
			key = d.free[n-1]
			d.free = d.free[:n-1]
		} else {
			key = uint32(len(d.deps))
			d.deps = append(d.deps, nil)
		}
		d.keyOf[id] = key
	}
	l := d.deps[key]
	i := sort.Search(len(l), func(i int) bool { return l[i].peer >= peer })
	if i < len(l) && l[i].peer == peer {
		l[i].cnt += k
		return
	}
	l = append(l, depEntry{})
	copy(l[i+1:], l[i:])
	l[i] = depEntry{peer: peer, cnt: k}
	d.deps[key] = l
}

// remove forgets k references from the peer slot to id, panicking on
// underflow: an underflow means some maintenance point missed an update
// and the index no longer mirrors the true state.
func (d *depIndex) remove(id ident.ID, peer uint32, k uint32) {
	if k == 0 {
		return
	}
	key, ok := d.keyOf[id]
	var l []depEntry
	var i int
	if ok {
		l = d.deps[key]
		i = sort.Search(len(l), func(i int) bool { return l[i].peer >= peer })
	}
	if !ok || i >= len(l) || l[i].peer != peer || l[i].cnt < k {
		panic(fmt.Sprintf("rechord: dep index underflow for %s at slot %d (-%d)", id, peer, k))
	}
	l[i].cnt -= k
	if l[i].cnt == 0 {
		l = append(l[:i], l[i+1:]...)
		d.deps[key] = l
		if len(l) == 0 {
			delete(d.keyOf, id)
			d.free = append(d.free, key)
		}
	}
}

// dependents returns the peers referencing id (sorted by slot). The
// returned slice aliases the index; callers must not hold it across
// mutations.
func (d *depIndex) dependents(id ident.ID) []depEntry {
	if key, ok := d.keyOf[id]; ok {
		return d.deps[key]
	}
	return nil
}

// dropStateDeps removes the departing peer's edge-set references from
// the index, one per reference its sets hold.
func (nw *Network) dropStateDeps(n *RealNode) {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, s := range v.sets() {
			for _, r := range s.Slice() {
				nw.deps.remove(r.Owner(), n.idx, 1)
			}
		}
	}
}

// holdsRef reports whether the peer's own state — edge sets, pending
// one-shot inbox, standing buckets — contains the exact reference. It
// is the verification step that turns the owner-granular candidate list
// into the scan-exact wake set for published-view changes.
func (n *RealNode) holdsRef(r ref.Ref) bool {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		if v.Nu.Contains(r) || v.Nr.Contains(r) {
			return true
		}
	}
	for _, m := range n.inbox {
		if m.Add == r {
			return true
		}
	}
	for _, b := range n.in {
		for _, rec := range b.c.recs() {
			if rec.addID() == r.Owner() && int(rec.meta&pmLevelMask) == r.Level() {
				return true
			}
		}
	}
	return false
}

// wakeDependents dirties every clean peer whose behavior can depend on
// the given changes: owners whose liveness or level set changed (their
// references purge differently now) and refs whose published rl/rr
// changed (rule 3's guards read them). Owner changes wake the indexed
// dependents directly; ref changes verify each candidate with holdsRef
// first, so the woken set is exactly what a scan of every peer's state
// computes (wakeSetScan in depindex_test.go is that scan). Repeats in
// either list are harmless (a dirty peer is not woken twice), and a ref
// whose owner is in owners, in this call or an earlier one, finds every
// candidate already dirty.
func (nw *Network) wakeDependents(owners []ident.ID, refs []ref.Ref) {
	for _, id := range owners {
		for _, e := range nw.deps.dependents(id) {
			nw.markDirtyIdx(e.peer)
		}
	}
	for _, r := range refs {
		for _, e := range nw.deps.dependents(r.Owner()) {
			n := nw.pt.nodes[e.peer]
			if n == nil || n.dirty {
				continue
			}
			if n.holdsRef(r) {
				nw.markDirtyIdx(e.peer)
			}
		}
	}
}
