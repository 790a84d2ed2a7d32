package rechord

import "repro/internal/ident"

// The paper's central structural insight is that Re-Chord, unlike
// Chord, is locally checkable: "the self-stabilization mechanism is
// purely local in that a node only has to inspect its local state"
// (Section 1.3). This file makes that concrete: LocallyStable asks a
// single peer whether replaying its own round — delivering its pending
// messages and running rules 1-6 on a copy — reproduces its current
// state and last output. The conjunction of this purely per-peer
// predicate over all peers is exactly global stability (proved as a
// test invariant in localcheck_test.go): if every peer's state and
// outgoing messages repeat, every inbox repeats, so the global state
// repeats; and since the rules are deterministic, a global fixed point
// makes every local replay a no-op.
//
// The incremental scheduler in network.go is this predicate turned
// into an execution strategy: a peer is skipped exactly while the
// replay is known to be a no-op because none of its inputs changed.

// LocallyStable reports whether the peer is at a local fixed point:
// delivering its pending messages and executing the rules would leave
// its own state unchanged and regenerate exactly the messages it sent
// in the previous round. It inspects only the peer's own state (plus
// the published rl/rr view that rule 3's guards read in the
// state-reading model). Peers unknown to the network report false.
func (nw *Network) LocallyStable(id ident.ID) bool {
	return nw.locallyStable(id, new(worker))
}

// locallyStable replays the peer's round on a clone, on the given
// worker (a private one: the check only reads the network, so it may run
// beside other readers).
func (nw *Network) locallyStable(id ident.ID, w *worker) bool {
	n := nw.pt.node(id)
	if n == nil {
		return false
	}
	clone := n.clone()
	nw.deliver(clone, w)
	nw.purge(clone, w)
	nw.runRules(clone, w)

	// The replayed state must match the current one: after a no-op
	// round the peer's sets must look exactly as they do now. The
	// pending inbox is input, not part of the compared state (the
	// standing buckets regenerate from the neighbors' repeated
	// outputs). And the regenerated output must match what the peer
	// actually sent last round — the barrier's own output diff —
	// otherwise neighbors would observe different inboxes next round.
	return n.vnodesEqual(clone.vnodes) && !diffFlow(n.lastFlow, w.out, w)
}

// CountLocallyStable returns how many peers currently pass the local
// stability check; the network is globally stable iff the count equals
// NumPeers (after at least one executed round).
func (nw *Network) CountLocallyStable() int {
	c, w := 0, new(worker)
	for _, id := range nw.order {
		if nw.locallyStable(id, w) {
			c++
		}
	}
	return c
}
