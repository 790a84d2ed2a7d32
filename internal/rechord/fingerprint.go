package rechord

import "repro/internal/ident"

// This file is the state fingerprint the golden records and the wire
// equivalence gate compare across executions. The engine's own settle
// verdict is exact: a diff against the pre-round image (barrier.go).

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
// the state vnodesEqual compares: Self, the two edge sets, and the
// rl/rr variables (only when their Has flag is set, mirroring
// VNode.equal). A nil hole hashes to a fixed marker.
func hashVNode(v *VNode) uint64 {
	if v == nil {
		return 0x9E3779B97F4A7C15
	}
	h := uint64(0x517CC1B727220A95)
	h = mixWord(mixWord(h, uint64(v.Self.Owner())), uint64(v.Self.Level()))
	h = mixWord(h, uint64(v.Nu.Len()))
	for _, r := range v.Nu.Slice() {
		h = mixWord(mixWord(h, uint64(r.Owner())), uint64(r.Level()))
	}
	h = mixWord(h, uint64(v.Nr.Len()))
	for _, r := range v.Nr.Slice() {
		h = mixWord(mixWord(h, uint64(r.Owner())), uint64(r.Level()))
	}
	// The length word of N_c, which no peer stores (it is empty at every
	// round boundary); still mixed so recorded fingerprints hold.
	h = mixWord(h, 0)
	var flags uint64
	if v.HasRL {
		flags |= 1
	}
	if v.HasRR {
		flags |= 2
	}
	h = mixWord(h, flags)
	if v.HasRL {
		h = mixWord(mixWord(h, uint64(v.RL.Owner())), uint64(v.RL.Level()))
	}
	if v.HasRR {
		h = mixWord(mixWord(h, uint64(v.RR.Owner())), uint64(v.RR.Level()))
	}
	return h
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
