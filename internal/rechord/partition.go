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
// full membership as passive stubs (see RealNode.remote).
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
// bucket update carries the sender's packed records as they stand in its
// contribution, and the recipient's host commits a sender's updates as
// the barrier commits a sender's ops, into private contributions from
// its pool (applyRun). A departure is handled identically at every
// process: each flushes the departed peer's standing output to the
// recipients it hosts, and only a leaver's host sends its goodbyes.
// The exchange protocol itself (frames, transports, the lockstep
// barrier) lives in internal/wire; this file only defines the effect
// payloads and their local application.

// BucketUpdate mirrors one sender's standing contribution at one
// recipient: the wire form of a waking bucket op. Recs are the
// contribution's records, every one addressed to To (Record.Message
// reconstitutes them); none deletes the bucket.
type BucketUpdate struct {
	From, To ident.ID
	Recs     []Record
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

	// views backs out's published views; Drain hands them out and the
	// next Step or membership op reuses them.
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
// one fresh, so no bucket stands yet) for partitioned execution: hosted
// decides the peers this process runs, here and for every later joiner
// (RealNode.remote), the stubs leave the frontier and drop the one-shots
// a seed queued for them (their host delivers its own copy), and the
// partition claims the network's flow router.
func NewPartition(nw *Network, hosted func(ident.ID) bool) *Partition {
	p := &Partition{nw: nw}
	nw.router, nw.hosted = p, hosted
	for _, n := range nw.pt.nodes {
		if n != nil && !hosted(n.id) {
			n.remote, n.dirty, n.inbox = true, false, nil
		}
	}
	return p
}

// Drain returns the effects this process produced since the last call
// (by Step and by membership ops). They live in the partition's
// buffers, and a bucket update's records are the sender's contribution
// itself: valid until the next Step or membership op, which reuse them,
// so a caller that keeps them longer must copy them. Apply does not
// touch them.
func (p *Partition) Drain() Effects {
	e := Effects{
		Buckets:   slices.Clip(p.out.Buckets),
		OneShots:  slices.Clip(p.out.OneShots),
		Publishes: slices.Clip(p.out.Publishes),
	}
	p.out = Effects{Buckets: e.Buckets[:0], OneShots: e.OneShots[:0], Publishes: e.Publishes[:0]}
	p.views = p.views[:0]
	return e
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
		if n != nil && !n.remote {
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
// A mirrored update carries the op's fresh contribution's records as
// they are, no copy: the contribution stays the sender's lastFlow until
// its next change, which the next Step makes at the earliest. An
// owner-level change (level span moved) and any per-level view change
// funnel into one full-state publish — receivers diff, so the wake sets
// stay exact — and the epilogue's active order is identifier order, so
// the effects (and with them frame contents and the wire's symbol-table
// assignment) are identical between identical runs.
func (p *Partition) emitFlow(n *RealNode, ops []bucketOp, published bool) {
	if published {
		p.pub = append(p.pub, n.idx)
	}
	for _, op := range ops {
		if !op.wake || !p.nw.pt.nodes[op.dstSlot].remote {
			continue
		}
		u := BucketUpdate{From: n.id, To: p.nw.pt.ids[op.dstSlot]}
		if op.c != nil {
			u.Recs = op.c.recs()
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
// The hosted bucket updates are committed in order, one sender run at a
// time (applyRun): consecutive hosted updates from one remote sender to
// ascending recipients, so no recipient repeats within a run. One
// sender's ops of one batch are two such runs at most, its deletions
// and its installs, each in identifier order (planRewrite).
func (p *Partition) Apply(e *Effects) {
	run := p.run[:0]
	for _, u := range e.Buckets {
		if !p.nw.runsHere(u.To) {
			continue
		}
		if k := len(run); k > 0 && (run[0].From != u.From || run[k-1].To >= u.To) {
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

// applyRun commits a sender run as the barrier commits one sender's ops:
// each update's records are copied into a private contribution from the
// serial worker's pool (the stub sender has no local lastFlow to share),
// planOp plans every update against the buckets as they stand, and apply
// commits the run. Like a batch commit it keeps the recipients' purge
// marks: the records are the sender's output of the batch that just ran
// at its host, built against the same round-start view as the batches
// here, and a shorter span arrives in the same exchange's publishes,
// which bump the shrink count (applyPublish).
func (p *Partition) applyRun(run []BucketUpdate) {
	nw := p.nw
	from := nw.pt.node(run[0].From)
	if from == nil {
		return // sender departed via an op this process already applied
	}
	w := nw.serial()
	o0, d0 := len(w.ops), len(w.deps)
	for _, u := range run {
		op := bucketOp{wake: true, private: true}
		if len(u.Recs) > 0 {
			op.c = w.free.get(u.To, len(u.Recs))
			copy(op.c.recs(), u.Recs)
		}
		nw.planOp(from.h(), u.To, op, w)
	}
	nw.commitPlanned(from.h(), w, o0, d0)
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
// joiner's host, which cannot see those senders' lastFlow. A hosted
// sender still addresses the joiner's identifier when that identifier
// departed earlier in the same round
// (TestPartitionRejoinMirrorsStandingFlow): the departure woke the
// sender, but it has not run since. The mirror copies the records: the
// next Step may drop the contribution before the effects are drained.
func (p *Partition) Join(id, contact ident.ID) error {
	if err := p.nw.Join(id, contact); err != nil {
		return err
	}
	if p.nw.runsHere(id) {
		return nil
	}
	for _, s := range p.nw.pt.nodes {
		if s == nil || s.id == id || s.remote {
			continue
		}
		if c := findContrib(s.lastFlow, id); c != nil {
			p.out.Buckets = append(p.out.Buckets, BucketUpdate{From: s.id, To: id, Recs: slices.Clone(c.recs())})
		}
	}
	return nil
}

// Leave integrates a graceful leave: Fail's removal, after the
// goodbye introductions. Only the leaver's host sends those (it holds
// the live state they are derived from): to hosted recipients directly,
// to each remote one as one one-shot.
func (p *Partition) Leave(id ident.ID) error {
	if n := p.nw.pt.node(id); n != nil && !n.remote {
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
