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
// sets (Nu/Nr/Nc) or in the standing inbox buckets stored at them. The
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

// depShardCount fixes the number of internal index shards. It is a
// property of the data structure, not of Config.Workers: the sharded
// barrier commit (see barrier.go) partitions the shard space over
// however many commit workers a batch runs, so the stored state is
// identical for every worker count. 16 shards keep the partition
// balanced for any plausible core count while the per-shard maps stay
// dense.
const depShardCount = 16

// depShardOf maps a referenced identifier to its index shard. The
// multiplicative mix spreads structured test identifiers as well as the
// uniform random ones; the function is pure, so shard ownership is a
// static property of the identifier.
func depShardOf(id ident.ID) uint32 {
	return uint32((uint64(id) * 0x9E3779B97F4A7C15) >> 60)
}

// depIndex maps identifiers to their dependents, split into
// depShardCount independent shards keyed by depShardOf. Within a shard,
// identifiers get dense keys through keyOf (recycled via a free list
// when their last dependent disappears); each dependents list is kept
// sorted by slot so updates are binary searches. Two mutations touching
// different shards are independent — the property the barrier's
// parallel commit relies on (each commit worker owns a disjoint set of
// shards). Reference counts commute, so the stored state after a batch
// of deltas is independent of application order within a shard too.
type depIndex struct {
	shards [depShardCount]depShard
}

// depShard is one independent slice of the index.
type depShard struct {
	keyOf map[ident.ID]uint32
	deps  [][]depEntry
	free  []uint32
}

// add records k more references from the peer slot to id.
func (d *depIndex) add(id ident.ID, peer uint32, k uint32) {
	d.shards[depShardOf(id)].add(id, peer, k)
}

func (s *depShard) add(id ident.ID, peer uint32, k uint32) {
	if k == 0 {
		return
	}
	if s.keyOf == nil {
		s.keyOf = make(map[ident.ID]uint32)
	}
	key, ok := s.keyOf[id]
	if !ok {
		if n := len(s.free); n > 0 {
			key = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			key = uint32(len(s.deps))
			s.deps = append(s.deps, nil)
		}
		s.keyOf[id] = key
	}
	l := s.deps[key]
	i := sort.Search(len(l), func(i int) bool { return l[i].peer >= peer })
	if i < len(l) && l[i].peer == peer {
		l[i].cnt += k
		return
	}
	l = append(l, depEntry{})
	copy(l[i+1:], l[i:])
	l[i] = depEntry{peer: peer, cnt: k}
	s.deps[key] = l
}

// remove forgets k references from the peer slot to id, panicking on
// underflow: an underflow means some maintenance point missed an update
// and the index no longer mirrors the true state.
func (d *depIndex) remove(id ident.ID, peer uint32, k uint32) {
	d.shards[depShardOf(id)].remove(id, peer, k)
}

func (s *depShard) remove(id ident.ID, peer uint32, k uint32) {
	if k == 0 {
		return
	}
	key, ok := s.keyOf[id]
	var l []depEntry
	var i int
	if ok {
		l = s.deps[key]
		i = sort.Search(len(l), func(i int) bool { return l[i].peer >= peer })
	}
	if !ok || i >= len(l) || l[i].peer != peer || l[i].cnt < k {
		panic(fmt.Sprintf("rechord: dep index underflow for %s at slot %d (-%d)", id, peer, k))
	}
	l[i].cnt -= k
	if l[i].cnt == 0 {
		l = append(l[:i], l[i+1:]...)
		s.deps[key] = l
		if len(l) == 0 {
			delete(s.keyOf, id)
			s.free = append(s.free, key)
		}
	}
}

// dependents returns the peers referencing id (sorted by slot). The
// returned slice aliases the index; callers must not hold it across
// mutations.
func (d *depIndex) dependents(id ident.ID) []depEntry {
	s := &d.shards[depShardOf(id)]
	if key, ok := s.keyOf[id]; ok {
		return s.deps[key]
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
				nw.deps.remove(r.Owner, n.idx, 1)
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
		if v.Nu.Contains(r) || v.Nr.Contains(r) || v.Nc.Contains(r) {
			return true
		}
	}
	for _, m := range n.inbox {
		if m.Add == r {
			return true
		}
	}
	for _, b := range n.in {
		sp := b.flow.spans[b.span]
		for i := sp.start; i < sp.end; i++ {
			pm := b.flow.packed[i]
			if b.flow.syms[pm.sym] == r.Owner && int(pm.meta&pmLevelMask) == r.Level {
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
// computes (wakeSetScan in depindex_test.go is that scan).
func (nw *Network) wakeDependents(owners map[ident.ID]bool, refs map[ref.Ref]bool) {
	for id := range owners {
		for _, e := range nw.deps.dependents(id) {
			nw.markDirtyIdx(e.peer)
		}
	}
	for r := range refs {
		if owners[r.Owner] {
			continue
		}
		for _, e := range nw.deps.dependents(r.Owner) {
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
