package rechord

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Join inserts a new peer that initially knows exactly one existing
// peer (Section 4.1: "a peer connects to one peer in the network").
// The network integrates it within O(log^2 n) rounds from a stable
// state (Theorem 4.1). The joiner enters the frontier dirty; existing
// peers wake up as its messages reach them.
func (nw *Network) Join(id ident.ID, contact ident.ID) error {
	if _, ok := nw.pt.lookup(id); ok {
		return fmt.Errorf("rechord: join: peer %s already present", id)
	}
	if _, ok := nw.pt.lookup(contact); !ok {
		return fmt.Errorf("rechord: join: contact %s not in network", contact)
	}
	nw.AddPeer(id)
	nw.SeedEdge(ref.Real(id), ref.Real(contact), graph.Unmarked)
	return nil
}

// Leave removes a peer gracefully (Section 4.2): before departing,
// each of its virtual nodes introduces its unmarked neighbors to one
// another, so the sorted order survives without the departed node, and
// the closest-real knowledge is handed over too (goodbyes). The
// introductions are delivered as ordinary next-round messages.
func (nw *Network) Leave(id ident.ID) error {
	n := nw.pt.node(id)
	if n == nil {
		return fmt.Errorf("rechord: leave: peer %s not in network", id)
	}
	nw.goodbyes(n, func(m Message) { nw.routeMessage(m.To.Owner(), m) })
	nw.removePeer(id)
	return nil
}

// goodbyes passes to send, in order, the one-shot introductions a
// leaving peer makes: every pair of what each virtual node knows, and
// each ring or connection edge it holds handed to a neighbour. Every
// graceful leave, partitioned or not, says goodbye through it.
func (nw *Network) goodbyes(n *RealNode, send func(Message)) {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		// Everything this virtual node can introduce: its unmarked
		// neighbors plus closest reals, excluding its own siblings
		// (they depart too).
		var know ref.Set
		know.AddAll(v.Nu)
		if v.HasRL {
			know.Add(v.RL)
		}
		if v.HasRR {
			know.Add(v.RR)
		}
		know.RemoveIf(func(r ref.Ref) bool { return r.Owner() == n.id })
		peers := know.Slice()
		for _, a := range peers {
			for _, b := range peers {
				if a != b {
					send(Message{To: a, Kind: graph.Unmarked, Add: b})
				}
			}
		}
		// Ring and connection edges it held are handed to a neighbor
		// rather than silently dropped.
		for _, w := range v.Nr.Slice() {
			if w.Owner() == n.id {
				continue
			}
			for _, a := range peers {
				if a != w {
					send(Message{To: a, Kind: graph.Ring, Add: w})
					break
				}
			}
		}
	}
}

// Fail removes a peer abruptly: no goodbyes, its edges dangle until
// the failure detector purges them (Section 4.2's fault case).
func (nw *Network) Fail(id ident.ID) error {
	if _, ok := nw.pt.lookup(id); !ok {
		return fmt.Errorf("rechord: fail: peer %s not in network", id)
	}
	nw.removePeer(id)
	return nil
}

// removePeer deletes the peer and reconciles the scheduler state: the
// standing buckets stored on it die with it, its slot is released
// (bumping its generation, so every handle to this incarnation stops
// resolving), its published view entries vanish, its standing output is
// delivered exactly once more (as one-shots, matching the literal
// timeline where messages sent in the final round still arrive), and
// every peer that references the departed identifier is woken so its
// next purge drops the stale references.
//
// The final delivery scans every peer for the departed handle's bucket.
// Buckets stand only at peers that run here, so a partition removes a
// peer this way at every process, whether it hosted the peer or not,
// and each recipient's host delivers its copy.
func (nw *Network) removePeer(id ident.ID) {
	n := nw.pt.node(id)
	h := n.h() // the incarnation's handle, before the generation bump
	for len(n.in) > 0 {
		nw.rewriteBucket(n.in[len(n.in)-1].sender, id, bucketOp{})
	}
	nw.view[n.idx] = nil
	nw.shrinks++ // every reference to the departed peer is stale now
	nw.dropStateDeps(n)
	nw.pt.release(n)
	nw.removeOrder(id)
	// The moved messages leave the dependency index with the bucket: the
	// recipient is dirty from here on, and one-shot inboxes are not
	// indexed.
	for _, dst := range nw.pt.nodes {
		if dst == nil {
			continue
		}
		if bi := dst.findBucket(h); bi >= 0 {
			dst.inbox = dst.in[bi].c.appendMsgs(dst.inbox)
			nw.rewriteBucket(h, dst.id, bucketOp{wake: true})
		}
	}
	nw.flow.adoptFlow(n, nil, nil) // its contributions die with it
	nw.flushFlowGauges()
	nw.wakeDependents([]ident.ID{id}, nil)
}

// routeMessage enqueues one-shot messages directly in a peer's inbox
// (graceful leave's goodbyes, a partition's received one-shots) and
// wakes it.
func (nw *Network) routeMessage(to ident.ID, msgs ...Message) {
	if slot, ok := nw.pt.lookup(to); ok {
		nw.pt.nodes[slot].inbox = append(nw.pt.nodes[slot].inbox, msgs...)
		nw.markDirtyIdx(slot)
	}
}
