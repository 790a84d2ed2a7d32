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
// the closest-real knowledge is handed over too. The introductions are
// delivered as ordinary next-round messages.
func (nw *Network) Leave(id ident.ID) error {
	n := nw.pt.node(id)
	if n == nil {
		return fmt.Errorf("rechord: leave: peer %s not in network", id)
	}
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
		know.RemoveIf(func(r ref.Ref) bool { return r.Owner == id })
		peers := know.Slice()
		for _, a := range peers {
			for _, b := range peers {
				if a != b {
					nw.routeMessage(Message{To: a, Kind: graph.Unmarked, Add: b})
				}
			}
		}
		// Ring and connection edges it held are handed to a neighbor
		// rather than silently dropped.
		for _, w := range v.Nr.Slice() {
			if w.Owner == id {
				continue
			}
			for _, a := range peers {
				if a != w {
					nw.routeMessage(Message{To: a, Kind: graph.Ring, Add: w})
					break
				}
			}
		}
	}
	nw.removePeer(id, nil)
	return nil
}

// Fail removes a peer abruptly: no goodbyes, its edges dangle until
// the failure detector purges them (Section 4.2's fault case).
func (nw *Network) Fail(id ident.ID) error {
	if _, ok := nw.pt.lookup(id); !ok {
		return fmt.Errorf("rechord: fail: peer %s not in network", id)
	}
	nw.removePeer(id, nil)
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
// hosted is nil for a peer this process executes: its lastFlow names
// the recipients of its standing output. A partition removing a stub
// passes its hosting predicate instead — the stub has no trustworthy
// flow template, so every local peer is scanned for the departed
// handle, and only hosted recipients get the final delivery (stub
// recipients just drop the shadow; their own hosts flush their copies).
func (nw *Network) removePeer(id ident.ID, hosted func(ident.ID) bool) {
	n := nw.pt.node(id)
	h := n.h() // the incarnation's handle, before the generation bump
	for len(n.in) > 0 {
		nw.rewriteBucket(n.in[len(n.in)-1].sender, id, nil, -1, false)
	}
	nw.view[n.idx] = nil
	nw.dropStateDeps(n)
	nw.pt.release(n)
	nw.removeOrder(id)
	// The moved messages leave the dependency index with the bucket: the
	// recipient is dirty from here on, and one-shot inboxes are not
	// indexed.
	flush := func(dst *RealNode, deliver bool) {
		bi := dst.findBucket(h)
		if bi < 0 {
			return
		}
		if deliver {
			dst.inbox = dst.in[bi].flow.appendSpan(dst.inbox, dst.in[bi].span)
		}
		nw.rewriteBucket(h, dst.id, nil, -1, deliver)
	}
	if hosted != nil {
		for _, dst := range nw.pt.nodes {
			if dst != nil {
				flush(dst, hosted(dst.id))
			}
		}
	} else if n.lastFlow != nil {
		for _, sp := range n.lastFlow.spans {
			if dst := nw.pt.node(sp.owner); dst != nil {
				flush(dst, true)
			}
		}
	}
	if n.lastFlow != nil {
		releaseFlow(n.lastFlow, &nw.flow)
		n.lastFlow = nil
	}
	nw.flushFlowGauges()
	nw.wakeDependents(map[ident.ID]bool{id: true}, nil)
}

// routeMessage enqueues a one-shot message directly (used by graceful
// leave, whose goodbyes are delivered like any other delayed
// assignment) and wakes the recipient.
func (nw *Network) routeMessage(msg Message) {
	if slot, ok := nw.pt.lookup(msg.To.Owner); ok {
		nw.pt.nodes[slot].inbox = append(nw.pt.nodes[slot].inbox, msg)
		nw.markDirtyIdx(slot)
	}
}
