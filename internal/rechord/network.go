package rechord

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/ref"
)

// Config controls protocol variants and execution.
type Config struct {
	// DisableRing turns off rule 5, for the linearization-only
	// ablation: the network converges to a sorted list, never a ring.
	DisableRing bool
	// DisableConnection skips rule 6's connect-virtual-nodes step, so no
	// connection edge is created (sibling clusters can stay disconnected).
	DisableConnection bool
	// Workers sets the number of goroutines that execute node rules in
	// parallel within a round. 0 means GOMAXPROCS; 1 forces serial
	// execution. Results are identical for any value: nodes only read
	// their own state plus an immutable snapshot, and all cross-node
	// effects are delayed messages merged at the round barrier.
	Workers int
}

// RoundStats reports what happened during one Step of a Scheduler:
// one synchronous round, or one asynchronous time step.
type RoundStats struct {
	Round         int // the round or step number just executed (1-based)
	Activated     int // peers whose rules ran this step
	MessagesSent  int
	VirtualMade   int
	VirtualKilled int
}

// PublishedView is one virtual node's published rl/rr state, readable
// by other peers' rule-3 guards (the state-reading model) and
// replicated as is to the processes of a partitioned run. The zero
// value means "nothing published".
type PublishedView struct {
	RL, RR       ref.Ref
	HasRL, HasRR bool
}

// publish extracts the published tuple of a virtual node, normalized
// so that unset sides carry a zero ref and absent == zero entry.
func publish(v *VNode) PublishedView {
	var e PublishedView
	if v.HasRL {
		e.HasRL, e.RL = true, v.RL
	}
	if v.HasRR {
		e.HasRR, e.RR = true, v.RR
	}
	return e
}

// Network is the synchronous-round simulation of a Re-Chord system:
// the set of peers, their virtual nodes and edge sets, and the message
// queues between rounds. It implements the standard synchronous
// message-passing model of Section 2.1.
//
// Step runs an activity-tracked (dirty-set) schedule: only peers whose
// inputs changed since their last execution run rules 1-6; peers at a
// local fixed point are skipped entirely, and their repeating output
// flow is represented by the standing per-sender inbox buckets (see
// RealNode.in). A network with an empty frontier is quiescent: Step
// degenerates to a counter increment, giving O(1) fixed-point
// detection.
type Network struct {
	cfg   Config
	pt    interner   // id ↔ dense slot registry; all hot per-peer state hangs off it
	order []ident.ID // sorted, for deterministic iteration
	round int

	// view is the published rl/rr state of every virtual node,
	// slot-indexed: view[slot][level] is the entry other peers' rule-3
	// guards read, and len(view[slot]) is the peer's published level
	// span m+1, which resolve reads. Inner slices are maintained
	// incrementally at round barriers; rules read them concurrently
	// during the parallel phase, writes happen only between phases. A
	// zero entry means "nothing published" (the old map representation
	// only stored non-zero entries).
	view [][]PublishedView

	// deps is the inverted dependency index (see depindex.go):
	// referenced owner identifier -> peers whose edge sets or standing
	// buckets mention it.
	deps depIndex

	// frontier lists the slots of peers whose dirty flag is set.
	// Entries may be stale (peer departed, slot re-collected); Step
	// filters by liveness and the flag.
	frontier []uint32

	// lastChange is the most recent round whose execution changed the
	// global state, the quantity convergence experiments report.
	lastChange int

	// epochClock issues peer change epochs (RealNode.epoch): it is
	// incremented on every bump, so two changes to the same peer are
	// never stamped equal even within one round (AddPeer followed by
	// SeedEdge before the first Step, for instance).
	epochClock int

	// bucketMsgs counts the messages across all standing buckets: the
	// per-round message flow of the current schedule.
	bucketMsgs int

	// shrinks counts the events that can make a held reference stale: a
	// departure (removePeer) and a level span published shorter
	// (setViews). A peer's purge mark (RealNode.purged) holds while it is
	// unchanged. Written only in serial sections, read by the pass.
	shrinks uint64

	// flow is the authoritative flow-storage accounting (live
	// contributions, resident bytes, shared vs unique bucket bytes,
	// install tallies), written by the commit and the epilogue.
	// Flushed to the telemetry gauges by flushFlowGauges.
	flow flowTally
	// dead collects the contributions that die between recycles: those
	// the epilogue drops and the private ones released with their
	// buckets.
	dead []*contrib

	// router is the stepping scheduler's plan/emit policy around the
	// barrier pipeline (see barrier.go); nil is the synchronous engine.
	// NewAsyncRunner and NewPartition claim it.
	router flowRouter

	// hosted says which peers run here (nil: every peer), set once by
	// NewPartition. It decides each peer's RealNode.remote bit, when the
	// partition wraps the network and when the peer joins; everything
	// else reads the bit.
	hosted func(ident.ID) bool

	// pool is the goroutine set and workers the execution arenas it
	// runs on (see barrier.go); workers[0] is also the caller's own.
	pool    *workerPool
	workers []*worker
	active  []uint32

	// prep holds the fixed-size per-active-index records that cross the
	// barrier (see barrier.go), reusing its storage across batches.
	prep []prepOut

	// br is the persistent batch fan-out machinery reused across
	// batches; bActive is the running batch's active list, read by the
	// pass's bodies.
	br      batchRun
	bActive []uint32

	// owners is the epilogue's reusable list of the peers whose level
	// span moved this batch, fed to wakeDependents.
	owners []ident.ID

	// met is the engine's always-on telemetry (shared with any
	// AsyncRunner driving this network). The hot-path contract: a
	// quiescent Step adds exactly one atomic increment; a non-quiescent
	// batch tallies into plain integers and flushes one atomic add per
	// counter at the barrier. Embedded by value so a zero-constructed
	// Network is still safe to step.
	met obs.EngineMetrics
}

// Obs returns the engine's telemetry counters. The returned metrics
// are live and safe to read concurrently with stepping.
func (nw *Network) Obs() *obs.EngineMetrics { return &nw.met }

// NewNetwork creates an empty network.
func NewNetwork(cfg Config) *Network {
	return &Network{cfg: cfg}
}

// Reserve pre-sizes the per-peer tables for n additional peers, so
// bulk topology builds (topogen, large-scale experiments) do not grow
// the dense state peer by peer.
func (nw *Network) Reserve(n int) {
	nw.pt.reserve(n)
	if cap(nw.view)-len(nw.view) < n {
		nw.view = append(make([][]PublishedView, 0, len(nw.view)+n), nw.view...)
	}
	if cap(nw.order)-len(nw.order) < n {
		nw.order = append(make([]ident.ID, 0, len(nw.order)+n), nw.order...)
	}
}

// node returns the live peer registered under the identifier, or nil.
func (nw *Network) node(id ident.ID) *RealNode { return nw.pt.node(id) }

// AddPeer inserts a real node with the identifier and no edges. It is
// the caller's job (topogen, Join) to give it initial knowledge.
func (nw *Network) AddPeer(id ident.ID) *RealNode {
	if _, ok := nw.pt.lookup(id); ok {
		panic(fmt.Sprintf("rechord: duplicate peer id %s", id))
	}
	n := &RealNode{id: id, vnodes: []*VNode{newVNode(id, 0)}, remote: nw.hosted != nil && !nw.hosted(id)}
	slot := nw.pt.intern(n)
	for int(slot) >= len(nw.view) {
		nw.view = append(nw.view, nil)
	}
	nw.view[slot] = append(nw.view[slot][:0], PublishedView{})
	nw.bumpEpoch(n)
	nw.insertOrder(id)
	nw.markDirtyIdx(slot)
	if nw.round > 0 {
		// Re-materialize standing flow addressed to this identifier: a
		// peer re-joining under an id that live senders still target
		// must see their repeating messages, exactly as the literal model
		// delivers them to whoever holds the address. Peers that merely
		// hold stale references to the id behave differently now that it
		// resolves again, so they are woken too.
		for _, s := range nw.pt.nodes {
			if s == nil || s == n {
				continue
			}
			if c := findContrib(s.lastFlow, id); c != nil {
				nw.rewriteBucket(s.h(), id, bucketOp{c: c, wake: true})
			}
		}
		nw.flushFlowGauges()
		nw.wakeDependents([]ident.ID{id}, nil)
	}
	return n
}

func (nw *Network) insertOrder(id ident.ID) {
	i := 0
	for i < len(nw.order) && nw.order[i] < id {
		i++
	}
	nw.order = append(nw.order, 0)
	copy(nw.order[i+1:], nw.order[i:])
	nw.order[i] = id
}

func (nw *Network) removeOrder(id ident.ID) {
	for i, x := range nw.order {
		if x == id {
			nw.order = append(nw.order[:i], nw.order[i+1:]...)
			return
		}
	}
}

// runsHere reports whether the identifier is a live peer whose rules
// this process runs.
func (nw *Network) runsHere(id ident.ID) bool {
	n := nw.pt.node(id)
	return n != nil && !n.remote
}

// markDirtyIdx puts the peer in the slot on the frontier: its inputs
// (inbox, purge environment, or published neighbor state) may have
// changed, so the next Step must run its rules. A peer that runs
// elsewhere is left to its host.
func (nw *Network) markDirtyIdx(slot uint32) {
	if n := nw.pt.nodes[slot]; n != nil && !n.dirty && !n.remote {
		n.dirty = true
		nw.frontier = append(nw.frontier, slot)
	}
}

// Wake schedules the peer to run in the next round. State reached
// through the public API (Step, Join, Leave, Fail, SeedEdge) wakes the
// affected peers automatically; callers that mutate a peer's state out
// of band (fault injection, perturbation tests) must Wake it so the
// activity scheduler notices the change. Such a write is part of the
// next run's pre-round state: it advances no epoch and no index entry,
// so the writer adjusts the index for each edge-set reference it moves.
// Waking an identifier that is unknown — never present, or departed
// (including via a now-stale rejoin) — is an explicit no-op: there is
// no peer to schedule, and a later AddPeer under the same identifier
// starts dirty anyway.
func (nw *Network) Wake(id ident.ID) {
	slot, ok := nw.pt.lookup(id)
	if !ok {
		return
	}
	nw.pt.nodes[slot].purged = 0 // the write may have brought in a stale reference
	nw.markDirtyIdx(slot)
}

// Quiescent reports whether the frontier is empty: no peer's inputs
// have changed since it last reached a local fixed point. A quiescent
// network is at the global fixed point, and every further Step is the
// identity on the global state.
func (nw *Network) Quiescent() bool {
	for _, slot := range nw.frontier {
		if n := nw.pt.nodes[slot]; n != nil && n.dirty {
			return false
		}
	}
	return true
}

// FrontierSize returns the number of peers currently scheduled to run
// in the next round. Stale frontier entries (a peer that departed
// while dirty, its slot possibly re-tenanted) are deduplicated the
// same way Step's collection pass is: by the dirty flag, counting each
// slot once.
func (nw *Network) FrontierSize() int {
	seen := make(map[uint32]bool, len(nw.frontier))
	c := 0
	for _, slot := range nw.frontier {
		if seen[slot] {
			continue
		}
		seen[slot] = true
		if n := nw.pt.nodes[slot]; n != nil && n.dirty {
			c++
		}
	}
	return c
}

// bumpEpoch stamps the peer with a fresh change epoch.
func (nw *Network) bumpEpoch(n *RealNode) {
	nw.epochClock++
	n.epoch = nw.epochClock
}

// PeerSlot exposes the peer's dense interner slot and the generation
// of its current incarnation. Slot-indexed side tables (the routing
// table cache, say) use the pair instead of an id-keyed map: the slot
// addresses the entry, the generation guards against a slot reused by
// a later peer. ok is false when the peer is not in the network.
func (nw *Network) PeerSlot(id ident.ID) (slot int, gen uint32, ok bool) {
	i, ok := nw.pt.lookup(id)
	if !ok {
		return 0, 0, false
	}
	return int(i), nw.pt.gens[i], true
}

// SlotSpan returns the size of the interner's slot space (live plus
// free slots): the bound consumers sizing slot-indexed tables need.
func (nw *Network) SlotSpan() int { return nw.pt.span() }

// PeerSlotEpoch is PeerSlot plus the peer's current change epoch: a
// monotone stamp that advances whenever the peer's own protocol state
// (virtual nodes, edge sets, rl/rr) may have changed. Derived per-peer
// state — a routing table read off the peer's virtual nodes, say — is
// fresh exactly as long as the epoch it was computed under still
// equals the current one. Only peers whose state actually changed are
// stamped.
func (nw *Network) PeerSlotEpoch(id ident.ID) (slot int, gen uint32, epoch int, ok bool) {
	i, ok := nw.pt.lookup(id)
	if !ok {
		return 0, 0, 0, false
	}
	return int(i), nw.pt.gens[i], nw.pt.nodes[i].epoch, true
}

// EpochClock returns the current value of the global epoch clock: the
// monotone counter that stamps per-peer change epochs. It advances
// whenever any peer's protocol state changes, so observing it move
// between two points in time means some peer's state (and any derived
// cache entry) changed in between.
func (nw *Network) EpochClock() int { return nw.epochClock }

// MembershipVersion moves whenever a peer joins or departs, and never
// otherwise: a snapshot of the membership (identifiers, slots,
// generations) is current exactly while the version it was taken under
// still equals this one.
func (nw *Network) MembershipVersion() uint64 { return nw.pt.version }

// SeedEdge gives the peer owning `from` initial knowledge of `to` as an
// edge of the kind, creating the source virtual node if needed. Used to
// build arbitrary initial states.
func (nw *Network) SeedEdge(from, to ref.Ref, k graph.Kind) {
	slot, ok := nw.pt.lookup(from.Owner())
	if !ok {
		panic(fmt.Sprintf("rechord: SeedEdge from unknown peer %s", from.Owner()))
	}
	n := nw.pt.nodes[slot]
	v := n.ensureLevel(from.Level())
	// A seeded level is published at once: the view grows to span it,
	// its new entries zero until the peer's first run publishes them.
	if k := from.Level() + 1 - len(nw.view[slot]); k > 0 {
		nw.view[slot] = append(nw.view[slot], make([]PublishedView, k)...)
	}
	switch {
	case to == v.Self:
	case k == graph.Connection:
		// A peer stores no connection edge between activations (rule 6
		// forwards each in the activation that holds it), so a seeded one
		// is a one-shot the peer's first run delivers and forwards.
		n.inbox = append(n.inbox, Message{To: v.Self, Kind: k, Add: to})
	case v.sets()[k].Add(to):
		// Out-of-band state mutation: the one new reference enters the
		// dependency index, which the barrier otherwise keeps by diff.
		nw.deps.add(to.Owner(), slot, 1)
		n.purged = 0
	}
	nw.bumpEpoch(n)
	nw.markDirtyIdx(slot)
}

// Peers returns the identifiers of all real nodes in increasing order.
func (nw *Network) Peers() []ident.ID {
	return append([]ident.ID(nil), nw.order...)
}

// Peer returns the real node with the identifier, or nil.
func (nw *Network) Peer(id ident.ID) *RealNode { return nw.pt.node(id) }

// NumPeers returns the number of real nodes.
func (nw *Network) NumPeers() int { return nw.pt.live }

// Round returns the number of rounds executed so far.
func (nw *Network) Round() int { return nw.round }

// viewOf reads the published rl/rr entry of the referenced virtual
// node: the round-start state rule 3's guards consult. Unknown peers
// and out-of-span levels read as the zero entry, exactly like the
// absent keys of the old ref-keyed map.
func (nw *Network) viewOf(r ref.Ref) PublishedView {
	slot, ok := nw.pt.lookup(r.Owner())
	if !ok {
		return PublishedView{}
	}
	vs, l := nw.view[slot], r.Level()
	if l >= len(vs) {
		return PublishedView{}
	}
	return vs[l]
}

// diffViews appends to changed the virtual refs of the owner in the slot
// whose published entry differs between the view and next, one entry per
// level of the owner (entries of levels next no longer has included):
// the publish diff of the barrier's prepare and of a partition's replica
// alike, so both wake exactly the same dependents. It only reads.
func (nw *Network) diffViews(slot uint32, owner ident.ID, next []PublishedView, changed []ref.Ref) []ref.Ref {
	vs := nw.view[slot]
	for lvl := len(next); lvl < len(vs); lvl++ {
		if vs[lvl] != (PublishedView{}) {
			changed = append(changed, ref.Virtual(owner, lvl))
		}
	}
	for lvl, e := range next {
		var cur PublishedView
		if lvl < len(vs) {
			cur = vs[lvl]
		}
		if cur != e {
			changed = append(changed, ref.Virtual(owner, lvl))
		}
	}
	return changed
}

// setViews replaces the slot's published entries with a copy of next,
// counting a shorter level span as a shrink: references to the levels it
// drops are stale from now on.
func (nw *Network) setViews(slot uint32, next []PublishedView) {
	if len(next) < len(nw.view[slot]) {
		nw.shrinks++
	}
	nw.view[slot] = append(nw.view[slot][:0], next...)
}

// resolve maps a reference onto a node that currently exists: dead
// peers yield ok=false; references to deleted virtual levels of a live
// peer fall back to the peer's real node, which in a deployment is the
// process that answers for all of the peer's virtual addresses.
func (nw *Network) resolve(r ref.Ref) (ref.Ref, bool) {
	slot, ok := nw.pt.lookup(r.Owner())
	if ok && r.Level() >= len(nw.view[slot]) {
		return ref.Real(r.Owner()), true
	}
	return r, ok
}

// purge drops n's references to departed peers and redirects references
// to deleted virtual nodes to the owning peer (perfect failure
// detection, the substitution documented in DESIGN.md for the paper's
// implicit fault model), in its sets and in w's N_c. It scans first: a
// set is copied (into w's scratch) and rewritten only when it actually
// holds a stale reference. It reports whether none did: then the buckets
// just delivered hold none either, which the purge mark records
// (deliverPhase).
func (nw *Network) purge(n *RealNode, w *worker) (clean bool) {
	clean = true
	for l, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, s := range w.edgeSets(v, l) {
			if !slices.ContainsFunc(s.Slice(), nw.stale) {
				continue
			}
			clean = false
			w.snap = append(w.snap[:0], s.Slice()...)
			s.Clear()
			for _, r := range w.snap {
				if rr, ok := nw.resolve(r); ok && rr != v.Self {
					s.Add(rr)
				}
			}
		}
	}
	return clean
}

// stale reports whether the reference no longer resolves to itself.
func (nw *Network) stale(r ref.Ref) bool {
	rr, ok := nw.resolve(r)
	return !ok || rr != r
}

// deliver applies the pending inbox of n: the one-shot messages (which
// are consumed) and the standing per-sender buckets (which persist,
// representing the senders' repeating output flow), the records
// straight from their packed fields. Messages to virtual levels the
// peer no longer simulates are merged into the closest surviving virtual
// node u_m, per rule 1's merge semantics; a connection edge goes to w's
// N_c. Delivery is a commutative,
// idempotent set-union, so the iteration order over buckets does not
// matter. It reports the messages applied and whether a bucket it read
// is marked unread; the marks stay for the barrier's commit to clear.
func (nw *Network) deliver(n *RealNode, w *worker) (delivered int, unread bool) {
	for _, msg := range n.inbox {
		w.land(n, msg.To.Level(), msg.Kind, msg.Add)
	}
	delivered = len(n.inbox)
	n.inbox = n.inbox[:0]
	for _, b := range n.in {
		unread = unread || b.unread
		delivered += b.c.count()
		for _, r := range b.c.recs() {
			w.land(n, r.ToLevel(), r.Kind(), r.Add())
		}
	}
	return delivered, unread
}

// land inserts one delivered edge of the kind at the virtual node the
// level lands on, refusing self-loops.
func (w *worker) land(n *RealNode, level int, k graph.Kind, r ref.Ref) {
	if v := n.landing(level); r != v.Self {
		w.edgeSets(v, v.Self.Level())[k].Add(r)
	}
}

// workerPool is a persistent set of goroutines running the parallel
// pass beside the caller, so Step does not respawn goroutines every
// round. The goroutines reference only the task channel, never the
// Network, so the Network stays collectable; a runtime cleanup closes
// the channel and lets them exit when the Network is garbage collected.
type workerPool struct {
	tasks chan func()
}

// defaultWorkers is the Config.Workers=0 parallelism: one worker per
// schedulable CPU.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ensurePool starts the pool with one goroutine per pool task on first
// use.
func (nw *Network) ensurePool(workers int) *workerPool {
	if nw.pool == nil {
		p := &workerPool{tasks: make(chan func())}
		for i := 0; i < workers; i++ {
			go func() {
				for f := range p.tasks {
					f()
				}
			}()
		}
		nw.pool = p
		runtime.AddCleanup(nw, func(ch chan func()) { close(ch) }, p.tasks)
	}
	return nw.pool
}

// Step executes one synchronous round over the current frontier:
// deliver pending messages, purge dead references, then run rules 1-6
// at every dirty peer (in parallel) and merge the effects at the round
// barrier. Clean peers are skipped; their state and standing output
// are what running them would recompute (the reference engine in
// reference_test.go runs every peer every round, and the lockstep
// suites compare the two after every round). A round with nothing to
// run is the identity on the global state.
func (nw *Network) Step() (stats RoundStats) {
	nw.round++
	nw.met.Steps.Inc()
	stats = RoundStats{Round: nw.round}

	active := nw.collectFrontier()
	stats.Activated = len(active)
	if len(active) > 0 && nw.runBatch(active, &stats) {
		nw.lastChange = nw.round
	}
	// At quiescence the standing buckets are exactly the messages every
	// peer keeps regenerating, so the per-round flow is their count.
	stats.MessagesSent = nw.bucketMsgs
	return stats
}

// collectFrontier drains the frontier into a deterministic active list
// of slots (sorted by peer identifier), clearing dirty flags so that
// barrier-time re-dirtying schedules peers for the NEXT round. The
// returned slice is owned by the network and reused across rounds.
func (nw *Network) collectFrontier() []uint32 {
	active := nw.active[:0]
	for _, slot := range nw.frontier {
		if n := nw.pt.nodes[slot]; n != nil && n.dirty {
			n.dirty = false
			active = append(active, slot)
		}
	}
	nw.frontier = nw.frontier[:0]
	nw.active = active
	nw.sortSlotsByID(active)
	return active
}

// sortSlotsByID orders live slots by their peers' identifiers: the
// deterministic execution order every barrier and rng-consuming
// schedule relies on.
func (nw *Network) sortSlotsByID(slots []uint32) {
	ids := nw.pt.ids
	slices.SortFunc(slots, func(a, b uint32) int { return cmp.Compare(ids[a], ids[b]) })
}

// runBatch executes one batch over the active (sorted) peers — one
// parallel pass running each peer's deliver, execute and prepare back to
// back on a worker, then the commit and the epilogue serially in active
// order (the phase bodies and what each may read and write are in
// barrier.go) — and reports whether the global state changed.
func (nw *Network) runBatch(active []uint32, stats *RoundStats) bool {
	nw.bActive = active
	nw.prep = slices.Grow(nw.prep[:0], len(active))[:len(active)]
	nw.runParallel(len(active), (*Network).activate)
	tCommit := time.Now()
	// The commit span (plus the scheduler's emit steps in the epilogue)
	// is the engine's reroute time. The staged publishes go first: every
	// pass read the pre-batch values, and apply must see the unread
	// marks every deliver consumed cleared.
	for i, slot := range active {
		nw.publishStaged(slot, &nw.prep[i])
	}
	var ops, deps int
	for i, slot := range active {
		p := &nw.prep[i]
		ops += nw.apply(nw.pt.nodes[slot].h(), p.ops, p.deps)
		deps += len(p.deps)
	}
	nw.countCommit(ops, deps)
	rerouteNS := time.Since(tCommit)
	changed, emitNS := nw.epilogue(active, stats)
	rerouteNS += emitNS

	// The publish series is the serial epilogue minus the time spent
	// inside the scheduler's emit step; it still includes the settle
	// bookkeeping and the dependent wakes.
	m := &nw.met
	m.PhaseReroute.Observe(float64(rerouteNS))
	m.PhasePublish.Observe(float64(time.Since(tCommit) - rerouteNS))
	return changed
}

// epilogue is the serial tail of a batch, in active order: everything
// that is ordered state — epoch stamps, settle bookkeeping, lastFlow
// swaps, the scheduler's emit step (whose time it returns), the wakes of
// the peers depending on a moved level span or view — plus the telemetry
// flush: the workers' plain-integer tallies become one atomic add per
// counter, and their phase times, summed, one observation per phase.
func (nw *Network) epilogue(active []uint32, stats *RoundStats) (changed bool, emitNS time.Duration) {
	var settledN, unsettledN, epochBumpN int
	for i, slot := range active {
		n := nw.pt.nodes[slot]
		p := &nw.prep[i]
		if p.ownerChanged {
			nw.owners = append(nw.owners, n.id)
		}
		published := p.ownerChanged || len(p.viewRefs) > 0
		if nw.router != nil && (len(p.ops) > 0 || published) {
			rt := time.Now()
			nw.router.emitFlow(n, p.ops, published)
			emitNS += time.Since(rt)
		}
		if p.stateChanged {
			nw.bumpEpoch(n)
			epochBumpN++
		}
		if p.stateChanged || p.consumed {
			// Not a local fixed point yet: stay on the frontier. Under every
			// scheduler a run that changed only the output settles on it: a
			// re-run reads the same state, standing buckets and view, so it
			// reproduces the output — and whatever of those moves wakes the
			// peer (bucket ops, its self-addressed bucket and a bucket
			// re-installed after a revoke included; wakeDependents).
			nw.markDirtyIdx(slot)
			unsettledN++
		} else {
			settledN++
		}
		// lastFlow adopts the batch's flow index: the contributions it
		// replaced are no bucket's any more (the commit rewrote or deleted
		// them).
		if p.outChanged {
			changed = true
			nw.flow.adopted++
			nw.flow.adoptFlow(n, p.flow, &nw.dead)
		}
		*p = prepOut{} // nothing of the batch outlives it
	}
	changed = changed || unsettledN > 0

	// The owners go first: a ref whose owner changed then finds every
	// candidate already dirty.
	fBefore := len(nw.frontier)
	nw.wakeDependents(nw.owners, nil)
	for _, w := range nw.workers {
		nw.wakeDependents(nil, w.viewRefs)
	}
	woken := len(nw.frontier) - fBefore
	nw.owners = nw.owners[:0]

	m := &nw.met
	var delivered int
	var sum tally
	for _, w := range nw.workers {
		stats.VirtualMade += w.made
		stats.VirtualKilled += w.killed
		delivered += w.delivered
		sum.purges += w.purges
		sum.purgesSkipped += w.purgesSkipped
		sum.deliverNS += w.deliverNS
		sum.executeNS += w.executeNS
		sum.prepNS += w.prepNS
		for k, f := range w.fired {
			if f != 0 {
				m.RuleFired[k].Add(f)
			}
		}
		w.tally = tally{}
		clear(w.flows) // so the arenas pin no dead contribution
		clear(w.ops)
		w.flows, w.views, w.viewRefs = resetArena(w.flows), resetArena(w.views), resetArena(w.viewRefs)
		w.ops, w.deps = resetArena(w.ops), resetArena(w.deps)
	}
	nw.prep = resetArena(nw.prep)
	nw.recycle()
	m.Batches.Inc()
	m.Activated.Add(uint64(len(active)))
	m.Delivered.Add(uint64(delivered))
	m.Purges.Add(uint64(sum.purges))
	m.PurgesSkipped.Add(uint64(sum.purgesSkipped))
	m.Settled.Add(uint64(settledN))
	m.Unsettled.Add(uint64(unsettledN))
	m.EpochBumps.Add(uint64(epochBumpN))
	m.Woken.Add(uint64(woken))
	m.PhaseDeliver.Observe(float64(sum.deliverNS))
	m.PhaseExecute.Observe(float64(sum.executeNS))
	m.PhasePrepare.Observe(float64(sum.prepNS))
	nw.flushFlowGauges()
	return changed, emitNS
}

// flushFlowGauges publishes the flow-storage accounting to the
// telemetry gauges: one atomic store per gauge per batch (or churn
// operation), never on the per-message path. A quiescent Step does not
// reach this — its telemetry cost stays one atomic increment.
func (nw *Network) flushFlowGauges() {
	m := &nw.met
	m.FlowContribs.Set(int64(nw.flow.contribs))
	m.FlowResidentBytes.Set(int64(nw.flow.residentBytes))
	m.FlowSharedBytes.Set(int64(nw.flow.sharedBytes))
	m.FlowUniqueBytes.Set(int64(nw.flow.uniqueBytes))
	m.FlowInstallsShared.Set(int64(nw.flow.installsShared))
	m.FlowInstallsCopied.Set(int64(nw.flow.installsCopied))
}

// Graph exports the current state as a graph snapshot over all real
// and virtual nodes with their marked edges. Edges pending in inboxes
// (delayed assignments already issued, visible next round) are
// included: in the synchronous model they are part of the global
// state, and the steady-state connection- and ring-edge flows live
// there at round boundaries.
func (nw *Network) Graph() *graph.Graph {
	g := graph.New()
	for _, id := range nw.order {
		n := nw.pt.node(id)
		for _, v := range n.vnodesByLevel() {
			g.AddNode(v.Self)
			for _, r := range v.Nu.Slice() {
				g.AddEdge(v.Self, r, graph.Unmarked)
			}
			for _, r := range v.Nr.Slice() {
				g.AddEdge(v.Self, r, graph.Ring)
			}
		}
	}
	for _, id := range nw.order {
		nw.pt.node(id).eachPending(func(msg Message) {
			if msg.To != msg.Add {
				g.AddEdge(msg.To, msg.Add, msg.Kind)
			}
		})
	}
	return g
}

// Census is the size of the graph Graph exports — distinct nodes, and
// distinct edges per graph.Kind — counted in place.
type Census struct {
	Nodes int
	Edges [graph.Connection + 1]int
}

// Census counts what Graph would export without materializing it. Nodes
// are a level bitmask per slot (virtual nodes plus every edge endpoint;
// endpoints of unknown owners or out-of-mask levels are collected and
// deduplicated on the side). Edges are the edge-set sizes plus, per
// recipient, the pending messages not already contained in the set they
// extend, deduplicated by sorting.
func (nw *Network) Census() Census {
	var c Census
	mask := make([]uint64, nw.pt.span())
	var extra []ref.Ref
	node := func(r ref.Ref) {
		if slot, ok := nw.pt.lookup(r.Owner()); ok && uint(r.Level()) < 64 {
			mask[slot] |= 1 << r.Level()
		} else {
			extra = append(extra, r)
		}
	}
	var pend []Message // one recipient's uncontained messages at a time
	for _, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		for _, v := range n.vnodes {
			if v == nil {
				continue
			}
			node(v.Self)
			for k, s := range v.sets() {
				c.Edges[k] += s.Len()
				for _, r := range s.Slice() {
					node(r)
				}
			}
		}
		// A pending message is the edge (To, Add); To is a node of its
		// recipient, so duplicates can only meet within one inbox.
		pend = pend[:0]
		n.eachPending(func(m Message) {
			if m.To == m.Add {
				return
			}
			node(m.To)
			node(m.Add)
			if v := n.VNode(m.To.Level()); v == nil || m.Kind == graph.Connection || !v.sets()[m.Kind].Contains(m.Add) {
				pend = append(pend, m)
			}
		})
		slices.SortFunc(pend, compareMessages)
		for _, m := range slices.Compact(pend) {
			c.Edges[m.Kind]++
		}
	}
	for _, b := range mask {
		c.Nodes += bits.OnesCount64(b)
	}
	slices.SortFunc(extra, ref.Ref.Compare)
	c.Nodes += len(slices.Compact(extra))
	return c
}

// ReChordGraph exports E_ReChord (Section 2.2): the projection of the
// unmarked and ring edges onto the real nodes — edge (u,v) whenever
// some (u_i, v) is in E_u or E_r. Self-loops from edges between a
// peer's own virtual nodes are omitted.
func (nw *Network) ReChordGraph() *graph.Graph {
	g := graph.New()
	for _, id := range nw.order {
		g.AddNode(ref.Real(id))
	}
	for _, id := range nw.order {
		n := nw.pt.node(id)
		for _, v := range n.vnodes {
			if v == nil {
				continue
			}
			for _, set := range []ref.Set{v.Nu, v.Nr} {
				for _, r := range set.Slice() {
					if r.Owner() != id {
						g.AddEdge(ref.Real(id), ref.Real(r.Owner()), graph.Unmarked)
					}
				}
			}
		}
	}
	return g
}
