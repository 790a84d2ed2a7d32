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
// full membership as passive stubs.
//
// The design exploits two properties of the round engine. First, a
// peer's rules read only its own state, the published view of the
// peers it references (viewOf), and the static config — so a process
// that keeps its stubs' published views and max levels up to date can
// execute its hosted peers exactly as the monolith would. Second, the
// barrier's bucket ops and its wakeDependents call are the only points
// where one peer's execution touches another peer's inputs — so
// mirroring the waking bucket ops (emitFlow), one-shot deliveries, and
// per-owner view publishes to the recipients' hosting processes is
// sufficient for semantic equivalence. Churn-free runs
// are round-for-round identical to the monolith; runs with churn skew
// by at most the op round and converge to the same unique stable
// topology (the paper's self-stabilization theorem), which the wire
// equivalence gate checks via StateFingerprint.
//
// Each round, every process: applies the round's membership ops, steps
// its hosted frontier, hands the resulting cross-partition effects to
// its PartitionSink, and then applies the effects received from every
// other process before the next round begins. The exchange protocol
// itself (frames, transports, the lockstep barrier) lives in
// internal/wire; this file only defines the effect payloads and their
// local application.

// BucketUpdate mirrors one sender's standing contribution at one
// recipient: the wire form of a waking bucket op. Empty Msgs deletes
// the bucket.
type BucketUpdate struct {
	From, To ident.ID
	Msgs     []Message
}

// OneShot delivers messages to one peer's one-shot inbox: goodbye
// introductions from a graceful leave and final flushes of a departed
// sender's standing flow travel this way.
type OneShot struct {
	To   ident.ID
	Msgs []Message
}

// PeerPublish replicates one hosted peer's published state — max
// virtual level and the full per-level view — to the processes holding
// it as a stub. Receivers diff it against their replica, so applying
// it reproduces the monolith barrier's exact wake set.
type PeerPublish struct {
	Owner    ident.ID
	MaxLevel int
	Views    []PublishedView
}

// PartitionSink receives the cross-partition effects of one local
// round. Buckets and one-shots are addressed (the recipient's hosting
// process applies them; applying them everywhere is also sound, since
// bucket rewrites are idempotent and one-shot application is
// hosted-gated); publishes are broadcast. Slices passed in are owned
// by the callee.
type PartitionSink interface {
	SendBucket(u BucketUpdate)
	SendOneShot(u OneShot)
	PublishState(p PeerPublish)
}

// Partition executes the hosted subset of a replicated Network. The
// network must be built identically at every process (same topology
// generator, same seed, same op sequence) so that membership, slot
// assignment and initial state agree everywhere.
type Partition struct {
	nw     *Network
	hosted func(ident.ID) bool
	sink   PartitionSink

	// pub lists, in identifier order, the slots of the hosted owners
	// whose published state (view or max level) changed in the running
	// batch and must be broadcast after it.
	pub []uint32
}

var _ Scheduler = (*Partition)(nil)

// NewPartition wraps the network for partitioned execution. hosted
// decides which peers this process runs; sink (may be nil for
// single-process use) receives the cross-partition effects. The
// network's flow router is claimed by the partition.
func NewPartition(nw *Network, hosted func(ident.ID) bool, sink PartitionSink) *Partition {
	p := &Partition{nw: nw, hosted: hosted, sink: sink}
	nw.router = p
	return p
}

// Network returns the underlying (replicated) network.
func (p *Partition) Network() *Network { return p.nw }

// Time returns the global round counter.
func (p *Partition) Time() int { return p.nw.round }

// LastChange returns the last round whose local execution changed
// hosted state.
func (p *Partition) LastChange() int { return p.nw.lastChange }

// InFlight counts locally standing messages (hosted and shadow
// buckets plus pending inboxes).
func (p *Partition) InFlight() int { return p.nw.InFlight() }

// Wake schedules a hosted peer; waking a stub is a no-op at this
// process (its host wakes it).
func (p *Partition) Wake(id ident.ID) {
	if p.hosted(id) {
		p.nw.Wake(id)
	}
}

// Quiescent reports whether any HOSTED peer is scheduled to run.
// Stubs on the frontier don't count: they were woken as bookkeeping
// side effects and are filtered out of every batch anyway.
func (p *Partition) Quiescent() bool {
	for _, slot := range p.nw.frontier {
		if n := p.nw.pt.nodes[slot]; n != nil && n.dirty && p.hosted(n.id) {
			return false
		}
	}
	return true
}

// Fingerprint digests this partition's hosted protocol state. XOR of
// every partition's value equals the monolith's StateFingerprint(nil).
func (p *Partition) Fingerprint() uint64 { return p.nw.StateFingerprint(p.hosted) }

// HostedPeers counts the peers this process executes.
func (p *Partition) HostedPeers() int {
	c := 0
	for _, n := range p.nw.pt.nodes {
		if n != nil && p.hosted(n.id) {
			c++
		}
	}
	return c
}

// Step runs one global round's hosted share: the round engine's body
// with the stubs filtered out (their hosting processes run them), then
// the batch's state publishes. Cross-partition effects stream into the
// sink during the call; the caller exchanges them and applies the
// other processes' effects (ApplyBucket/ApplyOneShot/ApplyPublish)
// before the next Step.
func (p *Partition) Step() RoundStats {
	stats := p.nw.stepRound(p.hosted)
	p.flushPublishes()
	return stats
}

// planFlow: standing buckets are rewritten locally exactly as the
// monolith does (stubs carry shadow buckets, so the sender-side dedup
// state is complete).
func (p *Partition) planFlow(n *RealNode, pr *prepOut, w *worker) { p.nw.planRewrite(n, pr, w) }

// emitFlow mirrors every bucket op that changed a remote recipient's
// standing input to the sink, in plan order, and notes a sender whose
// published state moved for the broadcast that follows the batch. An
// owner-level change (max level moved) and any per-level view change
// funnel into one full-state publish — receivers diff, so the wake sets
// stay exact — and the epilogue's active order is identifier order, so
// the sink stream (and with it frame contents and the wire's
// symbol-table assignment) is identical between identical runs.
func (p *Partition) emitFlow(n *RealNode, tpl *flowTemplate, ops []bucketOp, published bool) {
	if p.sink == nil {
		return
	}
	if published {
		p.pub = append(p.pub, n.idx)
	}
	for _, op := range ops {
		dst := p.nw.pt.ids[op.dstSlot]
		if !op.wake || p.hosted(dst) {
			continue
		}
		u := BucketUpdate{From: n.id, To: dst}
		if op.span >= 0 {
			u.Msgs = tpl.appendSpan(make([]Message, 0, tpl.spanLen(op.span)), op.span)
		}
		p.sink.SendBucket(u)
	}
}

// flushPublishes emits the batch's state publishes.
func (p *Partition) flushPublishes() {
	for _, slot := range p.pub {
		p.sink.PublishState(PeerPublish{
			Owner:    p.nw.pt.ids[slot],
			MaxLevel: int(p.nw.pt.maxLv[slot]),
			Views:    slices.Clone(p.nw.view[slot]),
		})
	}
	p.pub = p.pub[:0]
}

// ApplyBucket installs a remote sender's standing contribution. Safe
// to apply at every process: at the sender's own host the shadow was
// already written and the rewrite dedups to a no-op; elsewhere it
// keeps the stub-to-stub shadows consistent. The contribution lives in
// a private template frozen from nothing — the stub sender has no local
// flow generation to share. Messages addressed to anyone but u.To have
// no span to install and are dropped.
func (p *Partition) ApplyBucket(u BucketUpdate) {
	nw := p.nw
	from := nw.pt.node(u.From)
	if from == nil {
		return // sender departed via an op this process already applied
	}
	w := nw.serial()
	diffFlow(nil, u.Msgs, w)
	t := freezeFlow(nil, u.Msgs, w)
	t.private = true
	nw.flow.tallyBirth(t)
	nw.rewriteBucket(from.h(), u.To, t, t.findSpan(u.To), true)
	releaseFlow(t, &nw.flow)
}

// ApplyOneShot delivers messages to a hosted recipient's inbox.
// Non-hosted recipients are skipped: their own host applies its copy,
// and accepting it here would re-enter the stub-inbox sweep.
func (p *Partition) ApplyOneShot(u OneShot) {
	if !p.hosted(u.To) {
		return
	}
	nw := p.nw
	slot, ok := nw.pt.lookup(u.To)
	if !ok {
		return
	}
	n := nw.pt.nodes[slot]
	n.inbox = append(n.inbox, u.Msgs...)
	nw.markDirtyIdx(slot)
}

// ApplyPublish updates a stub's replicated published state, diffing it
// against the current replica and waking exactly the local dependents
// the monolith barrier would have woken. Publishes about peers hosted
// here are ignored (the local copy is authoritative).
func (p *Partition) ApplyPublish(u PeerPublish) {
	if p.hosted(u.Owner) {
		return
	}
	nw := p.nw
	slot, ok := nw.pt.lookup(u.Owner)
	if !ok {
		return
	}
	var owners map[ident.ID]bool
	if int32(u.MaxLevel) != nw.pt.maxLv[slot] {
		nw.pt.maxLv[slot] = int32(u.MaxLevel)
		owners = map[ident.ID]bool{u.Owner: true}
	}
	changed := nw.publishViews(slot, u.Owner, u.Views, nil)
	if len(owners) == 0 && len(changed) == 0 {
		return
	}
	refs := make(map[ref.Ref]bool, len(changed))
	for _, r := range changed {
		refs[r] = true
	}
	nw.wakeDependents(owners, refs)
}

// Join integrates a join: the membership change is replicated
// everywhere (Network.Join), and if the joiner is hosted elsewhere, the
// hosted senders' standing flow that AddPeer re-materialized into the
// local stub is mirrored to the joiner's host, which cannot see those
// senders' flow templates.
func (p *Partition) Join(id, contact ident.ID) error {
	if err := p.nw.Join(id, contact); err != nil {
		return err
	}
	if p.hosted(id) || p.sink == nil {
		return nil
	}
	for _, s := range p.nw.pt.nodes {
		if s == nil || s.id == id || !p.hosted(s.id) || s.lastFlow == nil {
			continue
		}
		si := s.lastFlow.findSpan(id)
		if si < 0 {
			continue
		}
		p.sink.SendBucket(BucketUpdate{From: s.id, To: id, Msgs: s.lastFlow.appendSpan(nil, si)})
	}
	return nil
}

// Leave integrates a graceful leave. Only the departing peer's host
// generates the goodbye introductions (it holds the live state they
// are derived from); every other process performs the scan-based
// removal. Goodbyes and final bucket flushes addressed to remote peers
// land in stub inboxes and are swept to the sink.
func (p *Partition) Leave(id ident.ID) error { return p.depart(id, p.nw.Leave) }

// Fail integrates an abrupt failure: removal everywhere, no goodbyes.
func (p *Partition) Fail(id ident.ID) error { return p.depart(id, p.nw.Fail) }

// depart removes a peer: through the network's own departure when it
// is hosted here, as a stub (removePeer with the hosting predicate)
// otherwise.
func (p *Partition) depart(id ident.ID, hostedDeparture func(ident.ID) error) error {
	if p.hosted(id) {
		if err := hostedDeparture(id); err != nil {
			return err
		}
	} else {
		if p.nw.pt.node(id) == nil {
			return fmt.Errorf("rechord: partition: departing peer %s not in network", id)
		}
		p.nw.removePeer(id, p.hosted)
	}
	p.sweepStubInboxes()
	return nil
}

// sweepStubInboxes forwards one-shot messages that churn handling
// parked on local stubs to the sink (their hosts deliver them for
// real). Only op application parks messages on stubs, so the sweep
// runs after ops, not every round.
func (p *Partition) sweepStubInboxes() {
	if p.sink == nil {
		return
	}
	for _, n := range p.nw.pt.nodes {
		if n == nil || len(n.inbox) == 0 || p.hosted(n.id) {
			continue
		}
		p.sink.SendOneShot(OneShot{To: n.id, Msgs: append([]Message(nil), n.inbox...)})
		n.inbox = n.inbox[:0]
	}
}
