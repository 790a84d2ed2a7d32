package rechord

import (
	"fmt"
	"slices"

	"repro/internal/ident"
	"repro/internal/ref"
)

// This file is the partitioned scheduler: the piece that lets one
// Re-Chord network be executed by several processes, each running the
// rules for a subset of the peers ("hosted" peers) while holding the
// full membership as passive stubs (see Network.hosted).
//
// The design exploits two properties of the round engine. First, a
// peer's rules read only its own state, the published view of the
// peers it references (viewOf), and the static config — so a process
// that keeps its stubs' published views (level spans included) up to
// date can execute its hosted peers exactly as the monolith would.
// Second, the barrier's bucket ops and its wakeDependents call are the
// only points where one peer's execution touches another peer's inputs
// — so mirroring the waking bucket ops (emitFlow), one-shot deliveries,
// and per-owner view publishes to the recipients' hosting processes is
// sufficient for semantic equivalence. Churn-free runs are
// round-for-round identical to the monolith; runs with churn skew
// by at most the op round and converge to the same unique stable
// topology (the paper's self-stabilization theorem), which the wire
// equivalence gate checks via StateFingerprint.
//
// Each round, every process: applies the round's membership ops, steps
// its hosted frontier, hands the round's Effects to the caller
// (Drain), and applies every process's Effects (Apply) before the
// next round begins. One rule decides where an effect lands: it is
// applied once, by its recipient's host — a bucket or one-shot where
// its recipient is hosted, a publish wherever its owner is a stub. A
// departure is handled identically at every process: each flushes the
// departed peer's standing output to the recipients it hosts, and only
// a leaver's host sends its goodbyes. The exchange protocol itself
// (frames, transports, the lockstep barrier) lives in internal/wire;
// this file only defines the effect payloads and their local
// application.

// BucketUpdate mirrors one sender's standing contribution at one
// recipient: the wire form of a waking bucket op. Empty Msgs deletes
// the bucket.
type BucketUpdate struct {
	From, To ident.ID
	Msgs     []Message
}

// OneShot delivers messages to one peer's one-shot inbox: the goodbye
// introductions of a graceful leave travel this way.
type OneShot struct {
	To   ident.ID
	Msgs []Message
}

// PeerPublish replicates one hosted peer's published state — the full
// per-level view, one entry per level 0..m, so its length carries the
// level span — to the processes holding it as a stub. Receivers diff it
// against their replica, so applying it reproduces the monolith
// barrier's exact wake set.
type PeerPublish struct {
	Owner ident.ID
	Views []PublishedView
}

// Effects is one process's cross-partition output, in emission order
// per kind: bucket updates and one-shots for remote recipients, and
// publishes of its hosted peers' state for every other process.
type Effects struct {
	Buckets   []BucketUpdate
	OneShots  []OneShot
	Publishes []PeerPublish
}

// Len counts the effects.
func (e *Effects) Len() int { return len(e.Buckets) + len(e.OneShots) + len(e.Publishes) }

// Partition executes the hosted subset of a replicated Network. The
// network must be built identically at every process (same topology
// generator, same seed, same op sequence) so that membership, slot
// assignment and initial state agree everywhere.
type Partition struct {
	nw  *Network
	out Effects // this process's effects since the last Drain

	// msgs and views back out's message lists and published views;
	// Drain hands them out and the next Step or membership op reuses
	// them.
	msgs  []Message
	views []PublishedView

	// run gathers Apply's current sender run.
	run []BucketUpdate

	// changed is applyPublish's scratch: the views a publish changed.
	changed []ref.Ref

	// pub lists, in identifier order, the slots of the hosted owners
	// whose published state (view or level span) changed in the running
	// batch and must be broadcast after it.
	pub []uint32
}

var _ Scheduler = (*Partition)(nil)

// NewPartition wraps a replica that has not stepped (every caller builds
// one fresh, so no bucket stands yet) for partitioned execution: hosted,
// which decides the peers this process runs, becomes the network's host
// predicate, the stubs leave the frontier, and the partition claims the
// network's flow router.
func NewPartition(nw *Network, hosted func(ident.ID) bool) *Partition {
	p := &Partition{nw: nw}
	nw.router, nw.hosted = p, hosted
	for _, n := range nw.pt.nodes {
		if n != nil && !hosted(n.id) {
			n.dirty = false
		}
	}
	return p
}

// Drain returns the effects this process produced since the last call
// (by Step and by membership ops). They live in the partition's
// buffers: valid until the next Step or membership op, which reuse
// them, so a caller that keeps them longer must copy them. Apply does
// not touch them.
func (p *Partition) Drain() Effects {
	e := Effects{
		Buckets:   slices.Clip(p.out.Buckets),
		OneShots:  slices.Clip(p.out.OneShots),
		Publishes: slices.Clip(p.out.Publishes),
	}
	p.out = Effects{Buckets: e.Buckets[:0], OneShots: e.OneShots[:0], Publishes: e.Publishes[:0]}
	p.msgs, p.views = p.msgs[:0], p.views[:0]
	return e
}

// appendMsgs copies c's messages into the message buffer and returns
// the copy.
func (p *Partition) appendMsgs(c *contrib) []Message {
	start := len(p.msgs)
	p.msgs = c.appendMsgs(p.msgs)
	return p.msgs[start:len(p.msgs):len(p.msgs)]
}

// Network returns the underlying (replicated) network.
func (p *Partition) Network() *Network { return p.nw }

// Time returns the global round counter.
func (p *Partition) Time() int { return p.nw.round }

// LastChange returns the last round whose local execution changed
// hosted state.
func (p *Partition) LastChange() int { return p.nw.lastChange }

// InFlight counts the messages standing at the hosted peers: their
// buckets and pending inboxes (stubs hold none).
func (p *Partition) InFlight() int { return p.nw.InFlight() }

// Wake schedules a hosted peer; waking a stub is a no-op at this
// process (its host wakes it).
func (p *Partition) Wake(id ident.ID) { p.nw.Wake(id) }

// Quiescent reports whether no hosted peer is scheduled to run (stubs
// never enter the frontier).
func (p *Partition) Quiescent() bool { return p.nw.Quiescent() }

// Fingerprint digests this partition's hosted protocol state. XOR of
// every partition's value equals the monolith's StateFingerprint(nil).
func (p *Partition) Fingerprint() uint64 { return p.nw.StateFingerprint(p.nw.hosted) }

// HostedPeers counts the peers this process executes.
func (p *Partition) HostedPeers() int {
	c := 0
	for _, n := range p.nw.pt.nodes {
		if n != nil && p.nw.runsHere(n.id) {
			c++
		}
	}
	return c
}

// Step runs one global round's hosted share: the round engine's round
// (stubs never enter its frontier; their hosting processes run them),
// then the batch's state publishes. Cross-partition effects accumulate
// for Drain; the caller exchanges them and applies every process's
// effects (Apply) before the next Step.
func (p *Partition) Step() RoundStats {
	stats := p.nw.Step()
	p.flushPublishes()
	return stats
}

// planFlow plans as the monolith does: the lastFlow merge-walk plans an
// op wherever a contribution changed, so a remote recipient needs no
// local bucket for the dedup; emitFlow mirrors its op.
func (p *Partition) planFlow(n *RealNode, pr *prepOut, w *worker) { p.nw.planRewrite(n, pr, w) }

// emitFlow mirrors every bucket op that changed a remote recipient's
// standing input into the effects, in plan order, and notes a sender
// whose published state moved for the broadcast that follows the batch.
// An owner-level change (level span moved) and any per-level view change
// funnel into one full-state publish — receivers diff, so the wake sets
// stay exact — and the epilogue's active order is identifier order, so
// the effects (and with them frame contents and the wire's symbol-table
// assignment) are identical between identical runs.
func (p *Partition) emitFlow(n *RealNode, ops []bucketOp, published bool) {
	if published {
		p.pub = append(p.pub, n.idx)
	}
	for _, op := range ops {
		dst := p.nw.pt.ids[op.dstSlot]
		if !op.wake || p.nw.runsHere(dst) {
			continue
		}
		u := BucketUpdate{From: n.id, To: dst}
		if op.c != nil {
			u.Msgs = p.appendMsgs(op.c)
		}
		p.out.Buckets = append(p.out.Buckets, u)
	}
}

// flushPublishes emits the batch's state publishes.
func (p *Partition) flushPublishes() {
	for _, slot := range p.pub {
		start := len(p.views)
		p.views = append(p.views, p.nw.view[slot]...)
		p.out.Publishes = append(p.out.Publishes, PeerPublish{
			Owner: p.nw.pt.ids[slot],
			Views: p.views[start:len(p.views):len(p.views)],
		})
	}
	p.pub = p.pub[:0]
}

// Apply applies one process's effects — its own included — here. Each
// effect lands once, at its recipient's host: a bucket update or
// one-shot only where its recipient is hosted, a publish only where its
// owner is a stub (the local copy of a hosted peer is authoritative).
// The hosted bucket updates are installed in order, one sender run —
// consecutive hosted updates from one remote sender — at a time
// (applyRun).
func (p *Partition) Apply(e *Effects) {
	run := p.run[:0]
	for _, u := range e.Buckets {
		if !p.nw.runsHere(u.To) {
			continue
		}
		if len(run) > 0 && run[0].From != u.From {
			p.applyRun(run)
			run = run[:0]
		}
		run = append(run, u)
	}
	if len(run) > 0 {
		p.applyRun(run)
	}
	clear(run)
	p.run = run[:0]
	for _, u := range e.OneShots {
		if p.nw.runsHere(u.To) {
			p.nw.routeMessage(u.To, u.Msgs...)
		}
	}
	for _, u := range e.Publishes {
		if !p.nw.runsHere(u.Owner) {
			p.applyPublish(u)
		}
	}
}

// applyRun installs a sender run at its recipients, in order: each
// update's messages become a private contribution (the stub sender has
// no local lastFlow to share) and the recipient's bucket points at it,
// or is deleted when the update carries none. The run's contributions
// are carved from one block. A message addressed to anyone but its
// update's recipient has no place in its contribution and is dropped.
func (p *Partition) applyRun(run []BucketUpdate) {
	nw := p.nw
	from := nw.pt.node(run[0].From)
	if from == nil {
		return // sender departed via an op this process already applied
	}
	size := 0
	for _, u := range run {
		if k := addressed(u); k > 0 {
			size += k + 1
		}
	}
	blk := make([]cmsg, size)
	for _, u := range run {
		op := bucketOp{wake: true, private: true}
		if k := addressed(u); k > 0 {
			op.c, blk = carve(blk, u.To, k)
			recs := op.c.recs()[:0]
			for _, m := range u.Msgs {
				if m.To.Owner() == u.To {
					recs = append(recs, packRec(m))
				}
			}
		}
		nw.rewriteBucket(from.h(), u.To, op)
	}
}

// addressed counts the messages of u addressed to its recipient.
func addressed(u BucketUpdate) int {
	k := 0
	for _, m := range u.Msgs {
		if m.To.Owner() == u.To {
			k++
		}
	}
	return k
}

// applyPublish updates a stub's replicated published state, diffing it
// against the current replica and waking exactly the local dependents
// the monolith barrier would have woken.
func (p *Partition) applyPublish(u PeerPublish) {
	nw := p.nw
	slot, ok := nw.pt.lookup(u.Owner)
	if !ok {
		return
	}
	var owners []ident.ID
	if len(u.Views) != len(nw.view[slot]) {
		owners = []ident.ID{u.Owner}
	}
	p.changed = nw.diffViews(slot, u.Owner, u.Views, p.changed[:0])
	nw.setViews(slot, u.Views)
	nw.wakeDependents(owners, p.changed)
}

// Join integrates a join: the membership change is replicated
// everywhere (Network.Join), and if the joiner is hosted elsewhere, the
// hosted senders' standing flow addressed to it (which AddPeer
// re-materializes only at a recipient that runs here) is mirrored to the
// joiner's host, which cannot see those senders' lastFlow. A hosted sender still addresses the joiner's
// identifier when that identifier departed earlier in the same round
// (TestPartitionRejoinMirrorsStandingFlow): the departure woke the
// sender, but it has not run since.
func (p *Partition) Join(id, contact ident.ID) error {
	if err := p.nw.Join(id, contact); err != nil {
		return err
	}
	if p.nw.runsHere(id) {
		return nil
	}
	for _, s := range p.nw.pt.nodes {
		if s == nil || s.id == id || !p.nw.runsHere(s.id) {
			continue
		}
		if c := findContrib(s.lastFlow, id); c != nil {
			p.out.Buckets = append(p.out.Buckets, BucketUpdate{From: s.id, To: id, Msgs: p.appendMsgs(c)})
		}
	}
	return nil
}

// Leave integrates a graceful leave: Fail's removal, after the
// goodbye introductions. Only the leaver's host sends those (it holds
// the live state they are derived from): to hosted recipients directly,
// to each remote one as one one-shot.
func (p *Partition) Leave(id ident.ID) error {
	if n := p.nw.pt.node(id); n != nil && p.nw.runsHere(id) {
		at := map[ident.ID]int{} // remote recipient -> its one-shot
		p.nw.goodbyes(n, func(m Message) {
			to := m.To.Owner()
			if p.nw.runsHere(to) {
				p.nw.routeMessage(to, m)
				return
			}
			i, ok := at[to]
			if !ok {
				i, at[to] = len(p.out.OneShots), len(p.out.OneShots)
				p.out.OneShots = append(p.out.OneShots, OneShot{To: to})
			}
			p.out.OneShots[i].Msgs = append(p.out.OneShots[i].Msgs, m)
		})
	}
	return p.Fail(id)
}

// Fail integrates an abrupt failure, identically at every process:
// each flushes the departed peer's standing output to the recipients it
// hosts.
func (p *Partition) Fail(id ident.ID) error {
	if p.nw.pt.node(id) == nil {
		return fmt.Errorf("rechord: partition: departing peer %s not in network", id)
	}
	p.nw.removePeer(id)
	return nil
}
