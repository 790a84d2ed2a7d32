package rechord

import (
	"container/heap"
	"math/rand"

	"repro/internal/ident"
)

// AsyncRunner executes the protocol under an asynchronous adversary,
// one step beyond the paper's synchronous model (its conclusion asks
// whether the approach extends; Clouser et al. treat linearization
// asynchronously). Per step, each frontier peer is activated with
// probability ActivationProb — idle peers neither read nor send — and
// messages are delivered after a delay drawn from the pluggable
// DelayModel. Rule guards read whatever the other peers' published
// state happens to be at activation time, so all the staleness the
// synchronous model forbids is exercised here.
//
// The runner is an event-driven Scheduler over the same dirty-set
// infrastructure as the synchronous round engine: a priority queue of
// activation and delivery events. Only frontier peers hold a pending
// activation event (the per-step Bernoulli(p) coin flips collapse into
// one geometric draw per wake-up), and the level and published-rl/rr
// caches update by diff at every batch barrier. A quiescent network
// with an empty delivery queue makes Step O(1).
//
// Message flow is two-tier, matching how the activity-tracked engine
// models the paper's repeating output flow:
//
//   - A link contribution that CHANGED at a run that changed the
//     sender's state (a handoff) travels as one-shot messages with a
//     drawn delay, consumed exactly once by the recipient — the
//     faithful per-emission semantics. Replaying
//     changing (transient) versions out of a standing bucket instead
//     provably destabilizes the system: when the delay spread is
//     comparable to the inter-activation gap, repeated re-consumption
//     of already superseded flow keeps re-perturbing settled regions
//     and the network never quiesces.
//   - Every other contribution is the sender's standing per-sender
//     inbox bucket, installed as the synchronous engine does: it wakes
//     the recipient only when its content is new there (a changed relay,
//     or a bucket re-installed after a handoff revoked it), and from
//     then on represents the sender's repeating flow — recipients
//     re-consume it at every activation, and a peer at a local fixed
//     point costs nothing while still "sending" every step.
//
// With ActivationProb = 1 and every delay equal to 1, the runner
// executes the synchronous schedule step for step: the global state —
// edge sets, rl/rr, and the pending-message multiset (a one-shot in
// flight and a standing bucket carry the same messages) — agrees with
// Network.Step round for round, churn included (the lockstep property
// test proves it).
//
// Fairness (every awake peer activated in finite expected time, every
// message delivered after a bounded draw) holds for any ActivationProb
// > 0 and any delay model with a finite cap, which is the standard
// premise for asynchronous self-stabilization.
type AsyncRunner struct {
	nw  *Network
	cfg AsyncConfig
	rng *rand.Rand

	step       int // asynchronous steps executed; independent of nw.round
	lastChange int // most recent step whose execution changed the state

	events eventQueue
	seq    uint64 // deterministic heap tiebreak

	// sched marks peers holding a pending activation event, as a
	// slot-indexed generation stamp (gen+1; 0 = none): a slot released
	// and re-tenanted invalidates the stamp by construction, without
	// the runner having to observe the departure.
	sched []uint32

	deliveries int      // pending delivery events
	inflight   int      // messages inside pending delivery events
	fIdx       int      // prefix of nw.frontier already drained
	active     []uint32 // batch scratch (slots)
	pend       []uint32 // drain scratch (slots)
	fp         uint64   // event-order fingerprint
}

// AsyncConfig parameterizes the adversary.
type AsyncConfig struct {
	// ActivationProb is the per-step probability that a frontier peer
	// executes its rules. 1 with delay 1 degenerates to the synchronous
	// schedule.
	ActivationProb float64
	// Delay draws message delays; see UniformDelay, GeometricDelay,
	// ParetoDelay and LinkDelay. nil is UniformDelay{Max: 1}, the
	// synchronous timing.
	Delay DelayModel
}

const (
	evActivation = iota
	evDelivery
)

// asyncEvent is one entry of the scheduler's priority queue: either
// "peer activates at step `at`" or "these one-shot messages reach the
// recipient at step `at`". The target peer is addressed by its handle
// (slot + generation) for the O(1) common case, with the identifier
// kept alongside: a peer that departed and re-joined under the same
// identifier before the event fired still receives it, exactly like
// the id-keyed queue did.
type asyncEvent struct {
	at         int
	seq        uint64
	kind       int
	peer       ident.ID // activation: who runs; delivery: the recipient
	hidx, hgen uint32   // the target incarnation's handle
	msgs       *contrib // delivery: the messages, an immutable contribution
}

// eventQueue is a min-heap ordered by (at, seq): virtual time first,
// then deterministic insertion order.
type eventQueue []*asyncEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*asyncEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// NewAsyncRunner wraps a network for asynchronous execution, claiming
// its flow router: the network must not be stepped synchronously
// afterwards. Standing buckets left by earlier synchronous rounds
// remain valid: they are the senders' repeating flow under any
// schedule.
func NewAsyncRunner(nw *Network, cfg AsyncConfig, rng *rand.Rand) *AsyncRunner {
	if cfg.ActivationProb <= 0 || cfg.ActivationProb > 1 {
		cfg.ActivationProb = 0.5
	}
	if cfg.Delay == nil {
		cfg.Delay = UniformDelay{Max: 1}
	}
	a := &AsyncRunner{nw: nw, cfg: cfg, rng: rng}
	nw.router = a
	return a
}

// typicalDelay infers a typical delay (at least 1) from the known models
// for sizing step budgets, so callers need not restate their parameters.
func typicalDelay(m DelayModel) int {
	d := 1
	switch m := m.(type) {
	case UniformDelay:
		d = m.Max
	case GeometricDelay:
		if m.P > 0 && m.P < 1 {
			d = int(2 / m.P)
		}
	case ParetoDelay:
		if d = m.Max; m.Max <= 0 {
			d = 8
		}
	case LinkDelay:
		d = m.Max
	}
	return max(d, 1)
}

// eventTarget resolves an event's target peer: the handle while the
// incarnation is alive, falling back to the identifier for a peer that
// re-joined under the same id (today's tenant of the name receives
// what was addressed to it, as under the id-keyed queue).
func (a *AsyncRunner) eventTarget(ev *asyncEvent) (*RealNode, uint32, bool) {
	pt := &a.nw.pt
	if int(ev.hidx) < len(pt.nodes) && pt.gens[ev.hidx] == ev.hgen {
		if n := pt.nodes[ev.hidx]; n != nil {
			return n, ev.hidx, true
		}
	}
	if slot, ok := pt.lookup(ev.peer); ok {
		return pt.nodes[slot], slot, true
	}
	return nil, 0, false
}

// isScheduled/setScheduled/clearScheduled manage the slot-indexed
// activation stamps (see the sched field).
func (a *AsyncRunner) isScheduled(n *RealNode) bool {
	return int(n.idx) < len(a.sched) && a.sched[n.idx] == n.gen+1
}

func (a *AsyncRunner) setScheduled(n *RealNode) {
	for int(n.idx) >= len(a.sched) {
		a.sched = append(a.sched, 0)
	}
	a.sched[n.idx] = n.gen + 1
}

func (a *AsyncRunner) clearScheduled(n *RealNode) {
	if int(n.idx) < len(a.sched) && a.sched[n.idx] == n.gen+1 {
		a.sched[n.idx] = 0
	}
}

// Network returns the wrapped network.
func (a *AsyncRunner) Network() *Network { return a.nw }

// Time returns the number of asynchronous steps executed. The
// network's synchronous round counter is untouched by the runner, so
// round-based telemetry (epochs, event timestamps) never conflates
// rounds with steps.
func (a *AsyncRunner) Time() int { return a.step }

// LastChange returns the most recent step whose execution changed the
// global state (0 if none did yet).
func (a *AsyncRunner) LastChange() int { return a.lastChange }

// Wake schedules the peer to run, like Network.Wake; the activation
// coin is first flipped on the next step.
func (a *AsyncRunner) Wake(id ident.ID) { a.nw.Wake(id) }

// Quiescent reports whether the asynchronous execution is at its fixed
// point: no frontier peer and no pending delivery that could still
// change anything. Every further Step is the identity on the global
// state.
func (a *AsyncRunner) Quiescent() bool {
	return a.deliveries == 0 && a.nw.Quiescent()
}

// InFlight returns the number of messages currently in flight:
// standing buckets, one-shot inbox entries, and messages inside
// pending delivery events.
func (a *AsyncRunner) InFlight() int { return a.inflight + a.nw.InFlight() }

// StepBudgetScale reports how many asynchronous steps one synchronous
// round is worth, for sizing run budgets: activation slows the
// frontier by 1/p and deliveries add about the delay model's typical
// delay (its bound, where it has one) of latency.
func (a *AsyncRunner) StepBudgetScale() float64 {
	return float64(typicalDelay(a.cfg.Delay)+1) / a.cfg.ActivationProb
}

// EventFingerprint returns a hash over the ordered stream of executed
// events (activations and deliveries with their step stamps). Two runs
// with the same seed, configuration and operation sequence produce the
// same fingerprint — the determinism contract's checkable form.
func (a *AsyncRunner) EventFingerprint() uint64 { return a.fp }

func (a *AsyncRunner) mixEvent(kind, at int, id ident.ID) {
	h := a.fp
	if h == 0 {
		h = 14695981039346656037
	}
	for _, w := range [...]uint64{uint64(kind), uint64(at), uint64(id)} {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= 1099511628211
		}
	}
	a.fp = h
}

// activationWait draws the number of steps until a newly woken peer's
// Bernoulli(p) activation coin first comes up, starting with the
// current step: 0 means "activates immediately". One inversion draw
// replaces the per-step coin flips, which is what makes idle time free.
func (a *AsyncRunner) activationWait() int {
	return geometricDraw(a.rng, a.cfg.ActivationProb)
}

// drainFrontier scans the frontier entries appended since the last
// drain and gives every newly dirty peer an activation event. start is
// the step of the peer's first coin flip; when immediate is non-nil a
// zero wait activates the peer in the current batch (its flip at
// `start` came up heads), otherwise the event goes through the queue.
func (a *AsyncRunner) drainFrontier(start int, immediate *[]uint32) {
	nw := a.nw
	fr := nw.frontier
	if a.fIdx < len(fr) {
		// The frontier is appended to in peer-scan order by
		// wakeDependents; sort the new entries by identifier so the rng
		// draw sequence (and hence the whole schedule) is
		// seed-deterministic.
		pend := a.pend[:0]
		for _, slot := range fr[a.fIdx:] {
			if n := nw.pt.nodes[slot]; n != nil && n.dirty && !a.isScheduled(n) {
				pend = append(pend, slot)
			}
		}
		a.fIdx = len(fr)
		nw.sortSlotsByID(pend)
		for _, slot := range pend {
			n := nw.pt.nodes[slot]
			if n == nil || !n.dirty || a.isScheduled(n) {
				continue
			}
			at := start + a.activationWait()
			if immediate != nil && at <= start {
				n.dirty = false
				*immediate = append(*immediate, slot)
				continue
			}
			a.setScheduled(n)
			a.seq++
			heap.Push(&a.events, &asyncEvent{at: at, seq: a.seq, kind: evActivation, peer: n.id, hidx: n.idx, hgen: n.gen})
		}
		a.pend = pend
	}
	// Compact the frontier once the stale prefix dominates, so a long
	// asynchronous run cannot grow it without bound (the synchronous
	// engine truncates it every round; the runner owns it instead).
	if len(fr) > 4*nw.NumPeers()+64 {
		kept := fr[:0]
		for _, slot := range fr {
			if n := nw.pt.nodes[slot]; n != nil && n.dirty {
				kept = append(kept, slot)
			}
		}
		nw.frontier = kept
		a.fIdx = len(kept)
	}
}

// planFlow is the runner's plan step: a merge-walk over the sender's
// standing flow (lastFlow) and this run's output (p.newFlow), both
// sorted by recipient, so ops come out in identifier order. Per
// recipient link:
//
//   - A changed contribution of a STATE-CHANGING run revokes the
//     standing bucket and travels as one-shot messages (emitFlow). This
//     is the faithful per-emission semantics for knowledge handoffs: a
//     rule-4 forward moves an edge out of the sender's state into the
//     message, so it must arrive exactly once and never be destroyed by
//     a bucket rewrite — and, conversely, must not be replayed out of a
//     bucket after the system moved past it.
//   - Every other contribution is installed as the standing bucket with
//     a wake, exactly like the synchronous barrier does; planOp drops
//     the wake when identical content stands. It fires for a changed
//     relay (the self-regenerating flows of rules 3, 5 and 6: carried in
//     buckets, they give every downstream run the same input view, so
//     relay chains stop flapping with arrival phases) and for a bucket
//     that comes back after a revoke, whose content the recipient's
//     last run did not see. Either failure mode is real: one-shot relays
//     never settle (phase-dependent outputs forever), bucket-carried
//     handoffs destabilize convergence (stale replays).
//   - A contribution that vanished revokes the bucket and wakes the
//     recipient, whichever kind of run dropped it.
//
// A state-stable run therefore plans no handoffs and settles by the
// epilogue's rule, as under the synchronous engines.
func (a *AsyncRunner) planFlow(n *RealNode, p *prepOut, w *worker) {
	nw, h := a.nw, n.h()
	old, cur := n.lastFlow, p.flow
	if !p.outChanged {
		cur = old // every contribution is run-stable
	}
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		if j == len(cur) || (i < len(old) && old[i].owner() < cur[j].owner()) {
			nw.planOp(h, old[i].owner(), bucketOp{wake: true}, w)
			i++
			continue
		}
		stood := i < len(old) && old[i].owner() == cur[j].owner()
		handoff := p.stateChanged && !(stood && old[i] == cur[j])
		nw.planOp(h, cur[j].owner(), bucketOp{c: cur[j], wake: !handoff, oneShot: handoff}, w)
		if stood {
			i++
		}
		j++
	}
}

// emitFlow sends the planned handoffs: per one-shot op, in plan
// (identifier) order, draw the delay and either land the span in the
// recipient's inbox now (delay 1, the synchronous timing: consumed next
// step) or queue a delivery event. Serial and ordered, so the rng draw
// sequence is reproducible for any worker count. A waking install marks
// its bucket unread, so a revoke before the recipient runs delivers it
// (commitBucketOp).
func (a *AsyncRunner) emitFlow(n *RealNode, ops []bucketOp, _ bool) {
	nw := a.nw
	for _, op := range ops {
		dst := nw.pt.nodes[op.dstSlot]
		if !op.oneShot {
			if op.wake && op.c != nil {
				dst.in[dst.findBucket(n.h())].unread = true
			}
			continue
		}
		d := clampDelay(a.cfg.Delay.Delay(a.rng, n.id, dst.id), 0)
		if d <= 1 {
			a.mixEvent(evDelivery, a.step, dst.id)
			dst.inbox = op.c.appendMsgs(dst.inbox)
			nw.markDirtyIdx(op.dstSlot)
			continue
		}
		a.seq++
		a.deliveries++
		a.inflight += op.c.count()
		op.c.nf |= pinned // the event holds it past the sender's next change
		heap.Push(&a.events, &asyncEvent{at: a.step + d, seq: a.seq, kind: evDelivery, peer: dst.id, hidx: dst.idx, hgen: dst.gen, msgs: op.c})
	}
}

// Step advances virtual time by one: deliver the due one-shot
// messages, activate the frontier peers whose coin came up, run their
// rules as one phased batch (identical to a synchronous round barrier
// over that subset, with this runner's plan and emit steps). A step
// with nothing due is O(1).
func (a *AsyncRunner) Step() RoundStats {
	a.step++
	now := a.step
	nw := a.nw
	nw.met.Steps.Inc()
	stats := RoundStats{Round: now}
	changed := false

	// Fire due events: deliveries land in the recipients' inboxes and
	// wake them; due activations form this step's batch. Delivery
	// events are tallied locally and flushed with one atomic add below
	// — a quiescent step (empty heap, empty frontier) pays only the
	// Steps increment above.
	fired := 0
	active := a.active[:0]
	for len(a.events) > 0 && a.events[0].at <= now {
		ev := heap.Pop(&a.events).(*asyncEvent)
		switch ev.kind {
		case evDelivery:
			a.deliveries--
			a.inflight -= ev.msgs.count()
			fired++
			if dst, slot, ok := a.eventTarget(ev); ok {
				a.mixEvent(evDelivery, ev.at, ev.peer)
				dst.inbox = ev.msgs.appendMsgs(dst.inbox)
				nw.markDirtyIdx(slot)
				changed = true
			}
		case evActivation:
			n, slot, ok := a.eventTarget(ev)
			if ok {
				a.clearScheduled(n)
				if n.dirty {
					n.dirty = false
					active = append(active, slot)
				}
			}
		}
	}

	// Peers woken since the last step — external churn and seeding, and
	// the deliveries just applied — flip their first coin at this step:
	// a zero wait joins the current batch.
	a.drainFrontier(now, &active)

	if len(active) > 0 {
		nw.sortSlotsByID(active)
		// Dedup: a peer whose activation event fired can re-enter via
		// the immediate path when a same-step delivery re-dirtied it
		// after its dirty flag was already cleared — the flag-based
		// dedup cannot catch that, and a duplicate slot would run the
		// same node concurrently in the batch. One activation per peer
		// per step; the delivered messages are consumed by that run.
		uniq := active[:1]
		for _, slot := range active[1:] {
			if slot != uniq[len(uniq)-1] {
				uniq = append(uniq, slot)
			}
		}
		active = uniq
		for _, slot := range active {
			a.mixEvent(evActivation, now, nw.pt.ids[slot])
		}
		stats.Activated = len(active)
		if nw.runBatch(active, &stats) {
			changed = true
		}
	}
	a.active = active[:0]

	// Peers re-dirtied at the barrier (their own unsettled run, bucket
	// revocations, wakeDependents) flip their first coin next step.
	a.drainFrontier(now+1, nil)

	if fired > 0 {
		nw.met.AsyncDeliveries.Add(uint64(fired))
	}
	if changed {
		a.lastChange = now
	}
	stats.MessagesSent = nw.bucketMsgs
	return stats
}

// RunUntilLegal executes steps until the network state matches the
// ideal stable topology for its current peers (checked at quiescence
// or every `every` steps), or the step budget runs out. It reports the
// total steps taken and whether the legal state was reached.
func (a *AsyncRunner) RunUntilLegal(idl *Ideal, maxSteps, every int) (int, bool) {
	if every < 1 {
		every = 1
	}
	for s := 0; s < maxSteps; s++ {
		a.Step()
		if (s%every == 0 || a.Quiescent()) && idl.Matches(a.nw) == nil {
			return a.step, true
		}
	}
	return a.step, idl.Matches(a.nw) == nil
}

var _ Scheduler = (*AsyncRunner)(nil)
