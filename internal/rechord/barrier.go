package rechord

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/ref"
)

// This file is the round barrier: the worker pool's execution arenas and
// the one pipeline through which a standing bucket is rewritten, for
// every scheduler. A batch is one parallel pass -> commit -> epilogue
// (runBatch, network.go); out-of-band mutation points run the same
// planner and applier: churn one bucket at a time (rewriteBucket), the
// partition's Apply one remote sender run at a time (commitPlanned).
//
// Ownership. Everything a batch allocates that does not outlive it
// belongs to the pool worker that runs the peer, never to the peer or
// its active index: the rule scratch, the single output buffer the
// rules append to, the pre-round image, the freeze scratch, the batch
// tallies, and the arenas holding what crosses the barrier. What is
// indexed by active position (prepOut) is a fixed-size record.
//
//   - The pass (parallel over active indexes, activate): one worker runs
//     a peer's deliver, execute and prepare back to back, so what only
//     the peer's own later phases read (the pre-round image, the rules'
//     output) stays in the worker's scratch.
//   - Deliver: copy the peer's edge sets into the image scratch, then
//     apply the pending inbox and purge stale references, unless the
//     peer's purge mark says there can be none. Reads the interner's
//     tables, the levels other peers published, the shrink count and the
//     peer's own buckets; writes the peer's own state (the mark included).
//   - Execute: rules 1-6 into the worker's out, the diff of out against
//     the peer's own lastFlow and — when it differs — the freeze of out
//     into the new flow index: fresh contributions for the changed
//     recipients, the old ones for the rest. Reads the peer's own state
//     and lastFlow plus the published view; writes the peer's own state.
//   - Prepare: the peer's new level span and view entries, diffed against
//     the published ones and staged in prep[i] and the worker's arenas;
//     the merge of its edge sets against the image — the settle verdict
//     and the edge-set dep deltas in one pass — and its scheduler's plan
//     step turning the output into bucket ops. Buckets and the dep index
//     are read, never written. Every plan step funnels through planOp,
//     the single place the rewrite / delete decision is made.
//   - Commit (serial, active order, on the caller's goroutine): first the
//     staged writes other peers' passes could have observed — every
//     active peer's level span and view entries, and the unread flags of
//     the async buckets its deliver consumed — then apply takes each
//     active peer's bucket ops (those to a recipient that runs elsewhere
//     are only mirrored, never applied), then its dep deltas. Its
//     installs keep the recipients' purge marks. It is the only code
//     that writes RealNode.in, bucketMsgs and bucket dep references, or
//     wakes a recipient because its standing input changed;
//     commitPlanned calls it too. The staged publishes count the level
//     spans that shrank (setViews), which the next batch's purge marks
//     read.
//   - Epilogue (serial, active order): epoch bumps, settle bookkeeping,
//     lastFlow swaps, the scheduler's emit step, and the wakes of the
//     peers depending on a moved level span or view; then the workers'
//     tallies are summed and their arenas reset.
//
// A scheduler differs from the synchronous engine only in its
// flowRouter — what it plans (read-only, in the parallel pass) and what
// it emits (in the epilogue, in active order, ops in plan order) — and
// in which peers run here (RealNode.remote), which markDirtyIdx, planOp
// and apply read; nothing else asks which scheduler runs. The async
// runner draws its delays and the partition appends its effects from
// emit, so RNG consumption and effect order cannot depend on the worker
// count.
//
// Why Workers=1 and Workers=N stay snapshot-for-snapshot identical: the
// commit and the epilogue run serially in active order whatever the
// worker count, so they are the Workers=1 commit and epilogue (the
// dependent wakes read the workers' arenas one by one, so the frontier's
// append order varies, but the frontier is a set, sorted by identifier
// before use). What is left is the parallel pass, and it writes nothing
// another peer's pass reads: which worker runs a peer decides where
// scratch lives, never what is computed (every buffer is reset before
// use, tallies are sums), and a peer's pass writes only its own state,
// prep[i] and the running worker's arenas. The state other peers read —
// the published view (level spans included), the buckets planOp
// searches — is written only by the commit, so every pass reads it as
// it stood when the batch began, as the paper's round-start snapshot
// has it.
//
// No dep-index remove can underflow: every remove emitted by prepare
// refers to references that were counted in the index before the batch
// (a rewritten bucket's net remove per Add owner is at most that owner's
// count in the old bucket; references of the pre-round image — disjoint
// categories).

// flowRouter is what a scheduler adds around the barrier pipeline.
type flowRouter interface {
	// planFlow stages the bucket ops for sender n's output in w's arenas
	// (through planOp), on a pool goroutine: it reads shared state and
	// writes only w. p.outChanged, p.stateChanged and p.flow are set.
	planFlow(n *RealNode, p *prepOut, w *worker)
	// emitFlow runs after the commit, serially and in active order, for
	// every sender that has ops or whose published state (level span or
	// an rl/rr entry) moved this batch: whatever the scheduler sends
	// besides standing buckets (delayed one-shots, bucket mirrors, state
	// publishes).
	emitFlow(n *RealNode, ops []bucketOp, published bool)
}

// worker is one pool goroutine's execution arena (workers[0] doubles as
// the caller's own, for the inline path and for mutations outside a
// batch). A worker is claimed by one task at a time, so nothing in it is
// shared; it is O(one peer's output) plus the barrier payload of the
// peers it ran this batch.
type worker struct {
	// Rule scratch (rules.go): the output buffer send appends to, the
	// orders rules 1-6 iterate, and the known real identifiers rules 1
	// and 3 read. The rules answer every other query in place, on the
	// peer's own sets.
	out                       []Message
	sibs, snap, lefts, rights []ref.Ref
	levels                    []int
	realID                    []ident.ID
	// nc is N_c, the running peer's connection edges, one set per level:
	// deliver fills it, purge and rule 1 treat it as one more edge set
	// (edgeSets), and rule 6 forwards and empties it, so it lives for one
	// activation while its capacity stays with the worker.
	nc []ref.Set

	// The pre-round image of the peer the worker is running: per level
	// whether it exists and its set lengths, then the references, which
	// prepare merges against the peer's state.
	imgLv   []imgLevel
	imgRefs []ref.Ref

	// Freeze scratch (flow.go): the per-recipient verdicts of diffFlow,
	// in order of first appearance and sorted by recipient, the sorted
	// recipients, the entry of each message of out, out's records packed
	// by recipient, and the stamped recipient table that groups them.
	// oldAdds and curAdds hold the Add owners of a rewritten bucket's old
	// and new messages, which the plan step nets into dep deltas.
	diff             []spanDiff
	order            []int32
	rcpt             []ident.ID
	at               []int32
	packed           []Record
	groups           []groupSlot
	stamp            uint32
	groupShift       uint8
	oldAdds, curAdds []ident.ID

	tally

	// The barrier payload of the peers the worker ran this batch (the
	// commit and the epilogue read it through the ranges in prepOut; the
	// epilogue wakes the dependents of viewRefs whole). Reset (and
	// released once a contracted frontier left it mostly unused) when the
	// batch ends.
	flows    []*contrib
	views    []PublishedView
	viewRefs []ref.Ref
	ops      []bucketOp
	deps     []depDelta

	// free is the blocks of dead contributions the freeze reuses.
	free contribPool
}

// ncAt returns w's N_c set of the level.
func (w *worker) ncAt(level int) *ref.Set {
	for len(w.nc) <= level {
		w.nc = append(w.nc, ref.Set{})
	}
	return &w.nc[level]
}

// edgeSets returns the edge sets of v, the running peer's virtual node
// at the level: its two stored sets and w's N_c of the level.
func (w *worker) edgeSets(v *VNode, level int) [3]*ref.Set {
	return [...]*ref.Set{&v.Nu, &v.Nr, w.ncAt(level)}
}

// imgLevel is one level of a peer's pre-round image: whether the level
// existed and the lengths of its two edge sets, whose references follow
// in the image's reference range in graph.Kind order.
type imgLevel struct {
	lens   [2]int32
	exists bool
}

// tally is what a worker counted over one batch, summed over the workers
// and zeroed by the epilogue: plain integers, so the hot path never
// touches shared state. The phase times are the worker's time inside
// each phase body; purges and purgesSkipped count the deliveries that
// ran the stale scan and those whose purge mark let them skip it.
type tally struct {
	made, killed, delivered      int
	purges, purgesSkipped        int
	fired                        [obs.NumRules]uint64
	deliverNS, executeNS, prepNS time.Duration
}

// resetArena empties a per-batch buffer. It releases the storage once a
// batch used under 1/64 of it (beyond a floor of 4096 entries, at most
// 64 KiB, that keeps the thin, fluctuating frontiers of a repair from
// ever regrowing it): a settled network does not retain its peak round's
// payload, and a converging one pays at most a few regrowths of
// by-then small buffers.
func resetArena[T any](s []T) []T {
	if floor := min(4096, 64<<10/int(unsafe.Sizeof(*new(T)))); cap(s) > 64*len(s)+floor {
		return nil
	}
	return s[:0]
}

// batchRun is the persistent fan-out machinery of runBatch: one task
// closure per pool worker, a WaitGroup and a work counter, reused across
// every batch.
type batchRun struct {
	wg    sync.WaitGroup
	next  atomic.Int64
	n     int
	f     func(nw *Network, w *worker, i int)
	tasks []func()
}

// drain runs f on w for the indexes it claims until none is left.
func (br *batchRun) drain(nw *Network, w *worker) {
	for {
		i := int(br.next.Add(1)) - 1
		if i >= br.n {
			return
		}
		br.f(nw, w, i)
	}
}

// serial returns workers[0], the caller's own arena, building the
// workers on first use: one per configured goroutine (Config.Workers, 0
// meaning one per schedulable CPU), sized from the configuration and not
// from any one round's frontier. workers[0] runs on the caller, every
// other one is a pool task.
func (nw *Network) serial() *worker {
	if nw.workers == nil {
		k := nw.cfg.Workers
		if k <= 0 {
			k = defaultWorkers()
		}
		br := &nw.br
		nw.workers = append(nw.workers, &worker{})
		for ; k > 1; k-- {
			w := &worker{}
			nw.workers = append(nw.workers, w)
			br.tasks = append(br.tasks, func() {
				defer br.wg.Done()
				br.drain(nw, w)
			})
		}
	}
	return nw.workers[0]
}

// runParallel fans f(w, i) for i in [0, n) over the workers; f must only
// touch its worker and per-index/per-peer state. The caller claims
// indexes too, on workers[0], so a batch too thin to need the pool is
// done before a pool goroutine wakes. One worker — or a single item —
// runs inline.
func (nw *Network) runParallel(n int, f func(nw *Network, w *worker, i int)) {
	w0 := nw.serial()
	k := min(len(nw.workers), n)
	if k <= 1 {
		for i := 0; i < n; i++ {
			f(nw, w0, i)
		}
		return
	}
	pool := nw.ensurePool(len(nw.br.tasks))
	br := &nw.br
	br.n, br.f = n, f
	br.next.Store(0)
	br.wg.Add(k - 1)
	for _, task := range br.tasks[:k-1] {
		pool.tasks <- task
	}
	br.drain(nw, w0)
	br.wg.Wait()
}

// prepOut is what crosses the barrier for one active index: the
// verdicts, the staged publishes, the frozen output, and the ranges of
// the workers' arenas holding it and the commit payload. The epilogue
// zeroes each record, so nothing here outlives the batch.
type prepOut struct {
	ownerChanged bool // the peer's level span moved
	outChanged   bool // total output differs from lastFlow
	stateChanged bool // the state differs from the pre-round image
	// consumed: deliver drained a one-shot inbox. That input will not
	// repeat, so this run is no evidence that a re-run reproduces the
	// peer, and the global state changed even when the peer's own did
	// not: the peer stays on the frontier.
	consumed bool
	// unread: deliver consumed a bucket the async runner marked unread;
	// the commit clears the marks.
	unread bool

	// views are the peer's per-level published entries after its run,
	// which the commit publishes (their count is its level span);
	// viewRefs lists the virtual refs whose published rl/rr entry they
	// change.
	views    []PublishedView
	viewRefs []ref.Ref

	// flow is the flow index of this batch's output, built whenever
	// outChanged, in the executing worker's arena: per recipient, the
	// lastFlow contribution where its messages did not change and a
	// fresh one where they did. The epilogue makes it the peer's
	// lastFlow.
	flow []*contrib

	// The commit payload: the bucket rewrites this sender wants and the
	// dep-index deltas they plus the peer's edge-set diff imply.
	ops  []bucketOp
	deps []depDelta
}

// bucketOp is one standing-bucket rewrite: the sender points the
// recipient's bucket at c, or deletes it when c is nil. wake puts the
// recipient on the frontier; an op without it installs content the
// recipient has already consumed. A oneShot op revokes the bucket
// instead of installing c: the scheduler's emit step sends c as one-shot
// messages. private marks a contribution built from a partition's
// bucket update, which no sender's lastFlow holds.
type bucketOp struct {
	c       *contrib
	dstSlot uint32
	delta   int32 // bucketMsgs adjustment (new len - old len)
	wake    bool
	oneShot bool
	private bool
}

// depDelta is one inverted-index adjustment: k > 0 adds, k < 0 removes
// references from the dependent slot to the identifier.
type depDelta struct {
	id   ident.ID
	slot uint32
	k    int32
}

// activate is the parallel pass's body for active index i: the peer's
// deliver, execute and prepare, back to back on w, each timed into w's
// tally.
func (nw *Network) activate(w *worker, i int) {
	t0 := time.Now()
	nw.deliverPhase(w, i)
	t1 := time.Now()
	nw.executePhase(w, i)
	t2 := time.Now()
	nw.preparePhase(w, i)
	w.deliverNS += t1.Sub(t0)
	w.executeNS += t2.Sub(t1)
	w.prepNS += time.Since(t2)
}

// deliverPhase is the deliver body for active index i: the pre-round
// image, then delivery and purge. A purge that found nothing stale marks
// the peer with the shrink count, and the next one is skipped while the
// mark holds and the inbox is empty: with no departure or shorter span
// since, every reference the peer held or its buckets carried is still
// live, the commit's installs since are their senders' purged output,
// and any other install or write cleared the mark.
func (nw *Network) deliverPhase(w *worker, i int) {
	n := nw.pt.nodes[nw.bActive[i]]
	p := &nw.prep[i]
	w.takeImage(n)
	p.consumed = len(n.inbox) > 0
	mark := nw.shrinks + 1
	skip := !p.consumed && n.purged == mark
	delivered, unread := nw.deliver(n, w)
	w.delivered += delivered
	p.unread = unread
	if skip {
		w.purgesSkipped++
		return
	}
	n.purged = 0
	if nw.purge(n, w) {
		n.purged = mark
	}
	w.purges++
}

// takeImage copies the peer's edge sets into w's image scratch — per
// level whether it exists and the two set lengths, then the references
// in order. The level span and rl/rr need no copy: the published view
// holds their pre-round values until the commit.
func (w *worker) takeImage(n *RealNode) {
	w.imgLv, w.imgRefs = w.imgLv[:0], w.imgRefs[:0]
	for _, v := range n.vnodes {
		var lv imgLevel
		if v != nil {
			lv.exists = true
			for k, s := range v.sets() {
				lv.lens[k] = int32(s.Len())
				w.imgRefs = append(w.imgRefs, s.Slice()...)
			}
		}
		w.imgLv = append(w.imgLv, lv)
	}
}

// executePhase is the execute body: rules 1-6 and the freeze — the diff
// of the worker's out against the peer's own lastFlow and, when it
// differs, the new flow index: lastFlow's contributions for the
// recipients whose messages did not change, fresh ones for the rest.
func (nw *Network) executePhase(w *worker, i int) {
	n := nw.pt.nodes[nw.bActive[i]]
	nw.runRules(n, w)
	p := &nw.prep[i]
	if p.outChanged = diffFlow(n.lastFlow, w.out, w); p.outChanged {
		p.flow = w.freezeFlow(n.lastFlow)
	}
}

// preparePhase is the prepare body: the staged publishes, the settle
// verdict, and the bucket ops and dep deltas the commit will apply.
// Writes touch only w's arenas and prep[i].
func (nw *Network) preparePhase(w *worker, i int) {
	slot := nw.bActive[i]
	n := nw.pt.nodes[slot]
	p := &nw.prep[i]
	v0, r0, o0, d0 := len(w.views), len(w.viewRefs), len(w.ops), len(w.deps)

	// The level span other peers' purges will resolve stale references
	// to deleted virtual nodes against, and the rl/rr entries (including
	// those of deleted levels) their rule-3 guards will read.
	p.ownerChanged = len(n.vnodes) != len(nw.view[slot])
	for _, v := range n.vnodes {
		e := PublishedView{}
		if v != nil {
			e = publish(v)
		}
		w.views = append(w.views, e)
	}
	p.views = w.views[v0:]
	w.viewRefs = nw.diffViews(slot, n.id, p.views, w.viewRefs)

	// The settle verdict, read by the plan step: the state the rules left
	// differs from the pre-round state in its edge sets (diffImage), its
	// level span or its rl/rr (the two publish diffs above).
	p.stateChanged = diffImage(slot, n, w) || p.ownerChanged || len(w.viewRefs) > r0
	if nw.router != nil {
		nw.router.planFlow(n, p, w)
	} else {
		nw.planRewrite(n, p, w)
	}
	p.viewRefs, p.ops, p.deps = w.viewRefs[r0:], w.ops[o0:], w.deps[d0:]
}

// publishStaged is the head of the commit for active index i: the view
// entries (and with their count the level span) the peer's prepare
// staged, when they moved, and the clearing of the unread marks its
// deliver consumed.
func (nw *Network) publishStaged(slot uint32, p *prepOut) {
	if len(p.viewRefs) > 0 || p.ownerChanged {
		nw.setViews(slot, p.views)
	}
	if p.unread {
		in := nw.pt.nodes[slot].in
		for bi := range in {
			in[bi].unread = false
		}
	}
}

// diffImage merges the peer's edge sets level by level against the
// pre-round image in w, appends a -1 dep delta for every reference that
// vanished and a +1 for every one that appeared, and reports whether
// any level differs (a set, or whether the level exists at all).
func diffImage(slot uint32, n *RealNode, w *worker) bool {
	changed := len(n.vnodes) != len(w.imgLv)
	refs := w.imgRefs
	for l := range max(len(n.vnodes), len(w.imgLv)) {
		var lv imgLevel
		if l < len(w.imgLv) {
			lv = w.imgLv[l]
		}
		v := n.VNode(l)
		changed = changed || lv.exists != (v != nil)
		for k, ln := range lv.lens {
			old := refs[:ln]
			refs = refs[ln:]
			var cur []ref.Ref
			if v != nil {
				cur = v.sets()[k].Slice()
			}
			if !slices.Equal(old, cur) {
				changed = true
				w.deps = appendSetDiff(w.deps, old, cur, slot)
			}
		}
	}
	return changed
}

// appendSetDiff merges two sorted reference sets and appends one dep
// delta per reference present in only one of them: -1 for old, +1 for
// cur.
func appendSetDiff(deps []depDelta, old, cur []ref.Ref, slot uint32) []depDelta {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(old) && old[i].Less(cur[j])):
			deps = append(deps, depDelta{id: old[i].Owner(), slot: slot, k: -1})
			i++
		case i == len(old) || cur[j].Less(old[i]):
			deps = append(deps, depDelta{id: cur[j].Owner(), slot: slot, k: 1})
			j++
		default:
			i++
			j++
		}
	}
	return deps
}

// planRewrite is the synchronous plan step (the partition's too): when
// the output changed, the bucket of every recipient whose contribution
// vanished is deleted, then every recipient with a fresh contribution has
// its bucket rewritten to it, each in identifier order and with a wake.
// A recipient that keeps its contribution is not visited: its bucket
// already points at it.
func (nw *Network) planRewrite(n *RealNode, p *prepOut, w *worker) {
	if !p.outChanged {
		return
	}
	old, cur := n.lastFlow, p.flow
	j := 0
	for _, c := range old {
		for j < len(cur) && cur[j].owner() < c.owner() {
			j++
		}
		if j == len(cur) || cur[j].owner() != c.owner() {
			nw.planOp(n.h(), c.owner(), bucketOp{wake: true}, w)
		}
	}
	i := 0
	for _, c := range cur {
		for i < len(old) && old[i].owner() < c.owner() {
			i++
		}
		if i == len(old) || old[i] != c {
			nw.planOp(n.h(), c.owner(), bucketOp{c: c, wake: true}, w)
		}
	}
}

// planOp decides what happens to the sender's standing bucket at one
// recipient and records the rewrite and its dep deltas in w's arenas. op
// says what the sender wants — its contribution op.c (nil: none),
// whether a change wakes the recipient, whether c travels as one-shots
// instead — and planOp fills in the rest against the bucket that stands:
// nothing when the bucket already points at c, or when nothing stands and
// there is nothing to send. To a recipient that runs elsewhere the op is
// planned as asked, with no delta and no dep deltas, only for the emit
// step to mirror: apply skips it. It is the only place that decision is
// made; buckets are only read here (concurrent prepares may read the
// same recipient's table).
func (nw *Network) planOp(sender handle, dstID ident.ID, op bucketOp, w *worker) {
	slot, ok := nw.pt.lookup(dstID)
	if !ok {
		return // destination departed
	}
	op.dstSlot = slot
	dst := nw.pt.nodes[slot]
	if dst.remote {
		w.ops = append(w.ops, op)
		return
	}
	install := op.c != nil && !op.oneShot
	var old *contrib
	if bi := dst.findBucket(sender); bi >= 0 {
		if old = dst.in[bi].c; install && old == op.c {
			return
		}
		op.delta = -int32(old.count())
	} else if op.c == nil {
		return // nothing stands, nothing to revoke
	}
	var cur *contrib
	if install {
		cur = op.c
		op.delta += int32(cur.count())
	}
	w.appendDepDiff(old, cur, slot)
	w.ops = append(w.ops, op)
}

// appendDepDiff appends the dep deltas that turn the Add-owner counts of
// old into those of cur (either may be nil) at the recipient slot: one
// delta per owner whose count changes, in identifier order. Both owner
// lists are sorted and merged, each owner's run netted as it passes.
func (w *worker) appendDepDiff(old, cur *contrib, slot uint32) {
	w.oldAdds, w.curAdds = sortedAdds(w.oldAdds, old), sortedAdds(w.curAdds, cur)
	a, b := w.oldAdds, w.curAdds
	for len(a) > 0 || len(b) > 0 {
		var id ident.ID
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			id = a[0]
		} else {
			id = b[0]
		}
		k := int32(0)
		for ; len(a) > 0 && a[0] == id; a = a[1:] {
			k--
		}
		for ; len(b) > 0 && b[0] == id; b = b[1:] {
			k++
		}
		if k != 0 {
			w.deps = append(w.deps, depDelta{id: id, slot: slot, k: k})
		}
	}
}

// sortedAdds fills buf with the Add owners of c's messages (none for a
// nil c), sorted.
func sortedAdds(buf []ident.ID, c *contrib) []ident.ID {
	buf = buf[:0]
	if c != nil {
		for _, r := range c.recs() {
			buf = append(buf, r.addID())
		}
		slices.Sort(buf)
	}
	return buf
}

// apply commits one sender's planned bucket ops, then its dep deltas:
// the barrier calls it for every active peer in active order, and
// commitPlanned outside a batch. Nothing else writes RealNode.in or
// bucketMsgs. It skips the ops to recipients that run elsewhere and
// returns the count it applied; the caller counts them and the deltas
// (countCommit). The installs keep the recipients' purge marks: a
// batch's are its senders' output, built from sets purged (or vouched
// for by the sender's mark) against the view the batch began with, and
// a shorter span the same commit publishes bumps the shrink count. A
// partition's Apply keeps them for the same reason (applyRun).
func (nw *Network) apply(sender handle, ops []bucketOp, deps []depDelta) (applied int) {
	for k := range ops {
		op := &ops[k]
		dst := nw.pt.nodes[op.dstSlot]
		if dst.remote {
			continue
		}
		applied++
		nw.bucketMsgs += int(op.delta)
		wake := op.wake
		if op.c == nil || op.oneShot {
			if bi := dst.findBucket(sender); bi >= 0 {
				old := dst.in[bi]
				if old.unread {
					// Content sent but never delivered arrives once, as one-shots.
					dst.inbox = old.c.appendMsgs(dst.inbox)
					wake = true
				}
				dst.delBucketAt(bi)
				nw.releaseBucket(old)
			}
		} else {
			nw.installBucket(dst, bucket{sender: sender, c: op.c, private: op.private})
		}
		if wake {
			nw.markDirtyIdx(op.dstSlot)
		}
	}
	for _, d := range deps {
		if d.k > 0 {
			nw.deps.add(d.id, d.slot, uint32(d.k))
		} else {
			nw.deps.remove(d.id, d.slot, uint32(-d.k))
		}
	}
	return applied
}

// countCommit flushes the op and delta counts of one commit: one atomic
// add each.
func (nw *Network) countCommit(ops, deps int) {
	if ops > 0 {
		nw.met.BucketOps.Add(uint64(ops))
	}
	if deps > 0 {
		nw.met.DepDeltas.Add(uint64(deps))
	}
}

// rewriteBucket is the pipeline run for one bucket, for the mutation
// points outside a batch (churn): plan the op on the caller's own worker,
// then apply it. An install here is no batch output, so it clears the
// recipient's purge mark.
func (nw *Network) rewriteBucket(sender handle, dstID ident.ID, op bucketOp) {
	w := nw.serial()
	o0, d0 := len(w.ops), len(w.deps)
	nw.planOp(sender, dstID, op, w)
	if len(w.ops) > o0 && op.c != nil && !op.oneShot {
		nw.pt.nodes[w.ops[o0].dstSlot].purged = 0
	}
	nw.commitPlanned(sender, w, o0, d0)
}

// commitPlanned applies the ops and dep deltas one sender's plan left on
// w past o0 and d0 outside a batch, counts them, and drops them from w's
// arenas.
func (nw *Network) commitPlanned(sender handle, w *worker, o0, d0 int) {
	nw.countCommit(nw.apply(sender, w.ops[o0:], w.deps[d0:]), len(w.deps)-d0)
	clear(w.ops[o0:]) // so the arena pins no replaced contribution
	w.ops, w.deps = w.ops[:o0], w.deps[:d0]
}
