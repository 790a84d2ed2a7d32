package rechord

import "repro/internal/ident"

// This file is the incremental settle check: a 64-bit content hash per
// (peer slot, virtual level) replacing the per-barrier deep clone of
// every active peer's virtual nodes.
//
// The invariant is that between batches, vhash[slot][lvl] equals
// hashVNode of the peer's current level-lvl state. runBatch's execute
// phase recomputes the hashes of the peers it just ran (only those —
// that is what makes the check frontier-proportional) and "the peer's round was
// a state no-op" becomes "no level hash changed and the level count is
// the same". Every out-of-band mutation point (AddPeer, SeedEdge, the
// white-box fixture rebuilds) refreshes the stored hashes, so the
// stored value always describes the pre-round state, as a clone taken
// before delivery would.
//
// A hash collision — a state change whose 64-bit hash collides with the
// previous state's — would settle a peer that is not at a local fixed
// point. The collision probability per comparison is ~2^-64 and a
// settled peer is re-woken by any later input change, so the failure
// mode is a (vanishingly unlikely) stall, not corruption. The tests
// compare every settle verdict with a replay on a clone (the reference
// engine and LocallyStable), and the testVNodeHash hook below injects
// forced collisions to prove that comparison catches them.

// testVNodeHash, when non-nil, overrides the content hash of a virtual
// node. It exists solely so tests can inject hash collisions
// (TestSettleHashMatchesClone); it must never be set outside tests, and
// only between Steps.
var testVNodeHash func(v *VNode) (uint64, bool)

// mixWord folds one 64-bit word into the running hash. The chain
// (h^w)*odd with a feedback shift is order-sensitive, so permuted edge
// sets and moved levels hash differently.
func mixWord(h, w uint64) uint64 {
	h ^= w
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// hashVNode computes the content hash of one virtual node over exactly
// the state vnodesEqual compares: Self, the three edge sets, and the
// rl/rr variables (only when their Has flag is set, mirroring
// VNode.equal). A nil hole hashes to a fixed marker.
func hashVNode(v *VNode) uint64 {
	if testVNodeHash != nil {
		if h, ok := testVNodeHash(v); ok {
			return h
		}
	}
	if v == nil {
		return 0x9E3779B97F4A7C15
	}
	h := uint64(0x517CC1B727220A95)
	h = mixWord(mixWord(h, uint64(v.Self.Owner)), uint64(v.Self.Level))
	h = mixWord(h, uint64(v.Nu.Len()))
	for _, r := range v.Nu.Slice() {
		h = mixWord(mixWord(h, uint64(r.Owner)), uint64(r.Level))
	}
	h = mixWord(h, uint64(v.Nr.Len()))
	for _, r := range v.Nr.Slice() {
		h = mixWord(mixWord(h, uint64(r.Owner)), uint64(r.Level))
	}
	h = mixWord(h, uint64(v.Nc.Len()))
	for _, r := range v.Nc.Slice() {
		h = mixWord(mixWord(h, uint64(r.Owner)), uint64(r.Level))
	}
	var flags uint64
	if v.HasRL {
		flags |= 1
	}
	if v.HasRR {
		flags |= 2
	}
	h = mixWord(h, flags)
	if v.HasRL {
		h = mixWord(mixWord(h, uint64(v.RL.Owner)), uint64(v.RL.Level))
	}
	if v.HasRR {
		h = mixWord(mixWord(h, uint64(v.RR.Owner)), uint64(v.RR.Level))
	}
	return h
}

// refreshHashSlot recomputes the per-level hashes of the peer in the
// slot, stores them, and reports whether anything changed (a level
// hash, or the level count itself). Safe to call from the parallel rule
// phase: distinct slots touch distinct inner slices, and the outer
// vhash slice is only grown between batches (AddPeer).
func (nw *Network) refreshHashSlot(slot uint32, n *RealNode) bool {
	old := nw.vhash[slot]
	changed := len(old) != len(n.vnodes)
	hs := old
	if cap(hs) < len(n.vnodes) {
		hs = make([]uint64, len(n.vnodes))
	} else {
		hs = hs[:len(n.vnodes)]
	}
	for l, v := range n.vnodes {
		nh := hashVNode(v)
		// hs may alias old; within one iteration the read of old[l]
		// precedes the write of hs[l], so the comparison is sound.
		if !changed && old[l] != nh {
			changed = true
		}
		hs[l] = nh
	}
	nw.vhash[slot] = hs
	return changed
}

// StateFingerprint digests the protocol state of every live peer the
// filter accepts (all peers when filter is nil): per peer, an
// order-sensitive chain over its identifier, level count and per-level
// content hashes; across peers, XOR — so fingerprints of disjoint
// partitions of one network combine into the whole-network value, and
// two networks holding the same peers in the same protocol state agree
// regardless of slot assignment. Only protocol state (the virtual
// nodes) is digested: standing buckets, pending inboxes and last
// outputs are schedule artifacts, empty or redundant at quiescence.
func (nw *Network) StateFingerprint(filter func(ident.ID) bool) uint64 {
	var fp uint64
	for _, n := range nw.pt.nodes {
		if n == nil || (filter != nil && !filter(n.id)) {
			continue
		}
		h := mixWord(0x243F6A8885A308D3, uint64(n.id))
		h = mixWord(h, uint64(len(n.vnodes)))
		for _, v := range n.vnodes {
			h = mixWord(h, hashVNode(v))
		}
		fp ^= h
	}
	return fp
}
