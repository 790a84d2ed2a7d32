package rechord

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/ref"
)

// This file is the round barrier: the worker pool's execution arenas and
// the one pipeline through which a standing bucket is rewritten, for
// every scheduler. A batch is deliver -> execute -> prepare -> commit ->
// epilogue (runBatch, network.go); out-of-band mutation points (churn,
// the partition's Apply calls) run the same planner and applier serially
// through rewriteBucket.
//
// Ownership. Everything a batch allocates that does not outlive it
// belongs to the pool worker that runs the peer, never to the peer or
// its active index: the rule scratch, the single output buffer the
// rules append to, the freeze scratch, the batch tallies, and the
// arenas holding what crosses the barrier. What is indexed by active
// position (prepOut) is a fixed-size record.
//
//   - Deliver (parallel over active indexes): copy the peer's edge sets
//     into the worker's image arenas (the pre-round image), then apply
//     the pending inbox and purge stale references. Reads the interner's
//     tables, writes the peer's own state.
//   - Execute (parallel): rules 1-6 into the worker's out, the diff of
//     out against the peer's own lastFlow, and — when it differs — the
//     freeze of out into the new template. Reads the peer's own state
//     and lastFlow plus the published view; writes the peer's own state
//     and prep[i]. out is dead when the body returns: the verdicts and
//     the template carry everything later phases need, so it never
//     crosses a barrier.
//   - Prepare (parallel): each active peer publishes its own view/level
//     slot (no other peer's prepare reads them), merges its edge sets
//     against its pre-round image — the settle verdict and the edge-set
//     dep deltas in one pass — and has its scheduler's plan step turn
//     the output into bucket ops — appended ONLY to the running worker's
//     arenas, prep[i] recording the ranges. Buckets and the dep index
//     are read, never written. Every plan step funnels through planOp,
//     the single place the rewrite / quiet-repoint / delete decision is
//     made.
//   - Commit (parallel over commit shards): recipients are partitioned
//     by slot (slot % shards) and dependency-index shards by
//     depShardOf(id) % shards, so every standing bucket, dirty flag and
//     index shard has exactly one writing worker. commitBucketOp and
//     commitDepDelta are the only code that writes RealNode.in,
//     bucketMsgs and bucket dep references, or wakes a recipient because
//     its standing input changed.
//   - Epilogue (serial, active order): epoch bumps, settle bookkeeping,
//     lastFlow swaps, the change-set merge feeding wakeDependents, and
//     the scheduler's emit step; then the workers' tallies are summed
//     and their arenas reset.
//
// A scheduler differs from the synchronous engine only in its
// flowRouter: what it plans (read-only, in the parallel prepare) and
// what it emits (in the epilogue, in active order, ops in plan order).
// The asynchronous runner draws its delays and the partition appends
// its effects from emit, so RNG consumption and effect order cannot
// depend on the worker count.
//
// Why Workers=1 and Workers=N stay snapshot-for-snapshot identical:
// which worker runs a peer decides where scratch lives, never what is
// computed (every buffer is reset before use, tallies are sums); every
// commit write is keyed by (sender handle, recipient slot) or
// (referenced id, dependent slot) and each key is written at most once
// per batch (a plan step emits at most one op per recipient), so the
// final buckets are order-independent; dep index counts commute; the
// frontier is an order-insensitive SET (sorted by identifier before it
// is consumed); and everything order-sensitive runs in the epilogue.
//
// Dep-index deltas tolerate any application order within a shard: every
// remove emitted by prepare refers to a reference that was counted in
// the index before the batch (old bucket contents, references of the
// pre-round image — disjoint categories), so at any prefix of any
// interleaving the entry's count is at least the remaining removes and
// the underflow panic cannot fire spuriously.

// flowRouter is what a scheduler adds around the barrier pipeline.
type flowRouter interface {
	// planFlow stages the bucket ops for sender n's output in w's arenas
	// (through planOp), on a pool goroutine: it reads shared state and
	// writes only w. p.outChanged, p.stateChanged, p.newFlow and p.kept
	// are set.
	planFlow(n *RealNode, p *prepOut, w *worker)
	// emitFlow runs after the commit, serially and in active order, with
	// the template the ops point into, for every sender that has ops or
	// whose published state (level span or an rl/rr entry) moved this
	// batch: whatever the scheduler sends besides standing buckets
	// (delayed one-shots, bucket mirrors, state publishes).
	emitFlow(n *RealNode, tpl *flowTemplate, ops []bucketOp, published bool)
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

	// Freeze scratch: the per-recipient verdicts of diffFlow, the span
	// cursors, new symbols and symbol translation of freezeFlow, and the
	// per-level entries prepare publishes.
	diff    []spanDiff
	order   []int32
	at      []int32
	cursors []uint32
	syms    []ident.ID
	symMap  []uint32
	views   []PublishedView

	tally

	// The pre-round images of the peers this worker delivered (prepare
	// reads them through the ranges in prepOut) and the barrier payload
	// of the peers it prepared (the commit and the epilogue read it the
	// same way). Reset (and released once a contracted frontier left it
	// mostly unused) when the batch ends.
	imgLv    []imgLevel
	imgRefs  []ref.Ref
	kept     []int32
	viewRefs []ref.Ref
	ops      []bucketOp
	deps     []depDelta
}

// imgLevel is one level of a peer's pre-round image: whether the level
// existed and the lengths of its three edge sets, whose references
// follow in the image's reference range in graph.Kind order.
type imgLevel struct {
	lens   [3]int32
	exists bool
}

// tally is what a worker counted over one batch, summed over the workers
// and zeroed by the epilogue: plain integers, so the hot path never
// touches shared state.
type tally struct {
	made, killed, delivered int
	fired                   [obs.NumRules]uint64
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
// closure per worker, a WaitGroup and a work counter, reused across
// every batch and phase.
type batchRun struct {
	wg    sync.WaitGroup
	next  atomic.Int64
	n     int
	f     func(nw *Network, w *worker, i int)
	tasks []func()
}

// serial returns workers[0], the caller's own arena, building the
// workers on first use: one per configured goroutine (Config.Workers, 0
// meaning one per schedulable CPU), sized from the configuration and not
// from any one round's frontier.
func (nw *Network) serial() *worker {
	if nw.workers == nil {
		k := nw.cfg.Workers
		if k <= 0 {
			k = defaultWorkers()
		}
		br := &nw.br
		for ; k > 0; k-- {
			w := &worker{}
			nw.workers = append(nw.workers, w)
			br.tasks = append(br.tasks, func() {
				defer br.wg.Done()
				for {
					i := int(br.next.Add(1)) - 1
					if i >= br.n {
						return
					}
					br.f(nw, w, i)
				}
			})
		}
	}
	return nw.workers[0]
}

// runParallel fans f(w, i) for i in [0, n) over the workers; f must only
// touch its worker and per-index/per-peer state (or, for the commit
// phase, state its index exclusively owns). One worker — or a single
// item — runs inline on the caller's goroutine.
func (nw *Network) runParallel(n int, f func(nw *Network, w *worker, i int)) {
	w0 := nw.serial()
	k := min(len(nw.workers), n)
	if k <= 1 {
		for i := 0; i < n; i++ {
			f(nw, w0, i)
		}
		return
	}
	pool := nw.ensurePool(len(nw.workers))
	br := &nw.br
	br.n, br.f = n, f
	br.next.Store(0)
	br.wg.Add(k)
	for _, task := range br.tasks[:k] {
		pool.tasks <- task
	}
	br.wg.Wait()
}

// prepOut is what crosses the barrier for one active index: the
// verdicts, the frozen output, and the ranges of the preparing worker's
// arenas holding its commit payload. The epilogue zeroes each record, so
// nothing here outlives the batch.
type prepOut struct {
	ownerChanged bool // the peer's level span moved
	outChanged   bool // total output differs from lastFlow
	stateChanged bool // the state differs from the pre-round image
	// consumed: deliver drained a one-shot inbox. That input will not
	// repeat, so this run is no evidence that a re-run reproduces the
	// peer, and the global state changed even when the peer's own did
	// not: the peer stays on the frontier.
	consumed bool

	// The peer's pre-round image, in the delivering worker's arenas.
	imgLv   []imgLevel
	imgRefs []ref.Ref

	// kept holds, per span of newFlow, the span of lastFlow it repeats
	// message for message, or -1: the recipient verdicts of the output
	// diff, in the executing worker's arena.
	kept []int32

	// viewRefs lists the virtual refs whose published rl/rr entry
	// changed this batch (merged into the barrier's viewChanged map by
	// the epilogue).
	viewRefs []ref.Ref

	// newFlow is the freshly frozen template of this batch's output,
	// built whenever outChanged. It carries one reference that the
	// epilogue hands to the peer's lastFlow.
	newFlow *flowTemplate

	// The commit payload: the bucket rewrites this sender wants (spans
	// of newFlow when the output changed, of lastFlow otherwise) and the
	// dep-index deltas they plus the peer's edge-set diff imply.
	ops  []bucketOp
	deps []depDelta
}

// flow is the template p's ops point into: the batch template when the
// output changed, the sender's standing lastFlow otherwise.
func (p *prepOut) flow(n *RealNode) *flowTemplate {
	if p.newFlow != nil {
		return p.newFlow
	}
	return n.lastFlow
}

// bucketOp is one standing-bucket rewrite: the sender points the
// recipient's bucket at span `span` of its template; span -1 deletes
// the bucket. wake puts the recipient on the frontier — ops without it
// change storage only (a content-identical bucket repointed at the new
// template generation, so at most one generation per sender stays live
// at rest) or install content the recipient has already consumed. A
// oneShot op revokes the bucket instead of installing the span: the
// scheduler's emit step sends the span as one-shot messages.
type bucketOp struct {
	dstSlot uint32
	delta   int32 // bucketMsgs adjustment (new len - old len)
	span    int32
	wake    bool
	oneShot bool
}

// depDelta is one inverted-index adjustment: k > 0 adds, k < 0 removes
// references from the dependent slot to the identifier.
type depDelta struct {
	id   ident.ID
	slot uint32
	k    int32
}

// commitShard is one commit worker's private output: the frontier
// slots it dirtied, its bucketMsgs adjustment, and its flow-storage
// accounting, merged serially after the commit barrier.
type commitShard struct {
	frontier   []uint32
	bucketMsgs int
	flow       flowTally
}

// deliverPhase is the parallel deliver body for active index i: the
// pre-round image, then delivery and purge.
func (nw *Network) deliverPhase(w *worker, i int) {
	n := nw.pt.nodes[nw.bActive[i]]
	p := &nw.prep[i]
	w.takeImage(n, p)
	p.consumed = len(n.inbox) > 0
	w.delivered += nw.deliver(n)
	nw.purge(n, w)
}

// takeImage appends the peer's edge sets to w's image arenas — per level
// whether it exists and the three set lengths, then the references in
// order — and records the ranges in p. The level span and rl/rr need no
// copy: the interner's maxLv and the published view hold their
// pre-round values until prepare diffs them.
func (w *worker) takeImage(n *RealNode, p *prepOut) {
	l0, r0 := len(w.imgLv), len(w.imgRefs)
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
	p.imgLv, p.imgRefs = w.imgLv[l0:], w.imgRefs[r0:]
}

// executePhase is the parallel execute body: rules 1-6 and the freeze —
// the diff of the worker's out against the peer's own lastFlow and, when
// it differs, the new template built from lastFlow and the changed
// recipients' messages, with the per-recipient verdicts kept for the plan
// step.
func (nw *Network) executePhase(w *worker, i int) {
	n := nw.pt.nodes[nw.bActive[i]]
	nw.runRules(n, w)
	p := &nw.prep[i]
	if p.outChanged = diffFlow(n.lastFlow, w.out, w); !p.outChanged {
		return
	}
	p.newFlow = freezeFlow(n.lastFlow, w.out, w)
	k0 := len(w.kept)
	for _, d := range w.order {
		sd := w.diff[d]
		if !sd.same {
			sd.old = -1
		}
		w.kept = append(w.kept, sd.old)
	}
	p.kept = w.kept[k0:]
}

// preparePhase is the parallel prepare body: the publish diff, the
// settle verdict, and the bucket ops and dep deltas the commit will
// apply. Writes touch only the peer's own view/maxLv slots, w's arenas
// and prep[i].
func (nw *Network) preparePhase(w *worker, i int) {
	slot := nw.bActive[i]
	n := nw.pt.nodes[slot]
	p := &nw.prep[i]
	v0, o0, d0 := len(w.viewRefs), len(w.ops), len(w.deps)

	// Publish the peer's level so other peers' purges detect stale
	// references to its deleted virtual nodes. Own-slot write: nothing
	// else reads maxLv or the view during prepare.
	newMax := n.MaxLevel()
	if newMax != int(nw.pt.maxLv[slot]) {
		nw.pt.maxLv[slot] = int32(newMax)
		p.ownerChanged = true
	}
	// Publish rl/rr changes (including entries of deleted levels).
	w.views = w.views[:0]
	for _, v := range n.vnodes {
		e := PublishedView{}
		if v != nil {
			e = publish(v)
		}
		w.views = append(w.views, e)
	}
	w.viewRefs = nw.publishViews(slot, n.id, w.views, w.viewRefs)

	// The settle verdict, read by the plan step: the state the rules left
	// differs from the pre-round state in its edge sets (diffImage), its
	// level span or its rl/rr (the two publish diffs above).
	p.stateChanged = diffImage(slot, n, p, w) || p.ownerChanged || len(w.viewRefs) > v0
	if nw.router != nil {
		nw.router.planFlow(n, p, w)
	} else {
		nw.planRewrite(n, p, w)
	}
	p.viewRefs, p.ops, p.deps = w.viewRefs[v0:], w.ops[o0:], w.deps[d0:]
}

// diffImage merges the peer's edge sets level by level against its
// pre-round image, appends a -1 dep delta for every reference that
// vanished and a +1 for every one that appeared, and reports whether
// any level differs (a set, or whether the level exists at all).
func diffImage(slot uint32, n *RealNode, p *prepOut, w *worker) bool {
	changed := len(n.vnodes) != len(p.imgLv)
	refs := p.imgRefs
	for l := range max(len(n.vnodes), len(p.imgLv)) {
		var lv imgLevel
		if l < len(p.imgLv) {
			lv = p.imgLv[l]
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
			deps = append(deps, depDelta{id: old[i].Owner, slot: slot, k: -1})
			i++
		case i == len(old) || cur[j].Less(old[i]):
			deps = append(deps, depDelta{id: cur[j].Owner, slot: slot, k: 1})
			j++
		default:
			i++
			j++
		}
	}
	return deps
}

// planRewrite is the synchronous plan step (the partition's too): when
// the output changed, every recipient's standing bucket is rewritten to
// the new contribution and wakes the recipient. Recipients of the old
// flow with no new contribution come first, then the new spans.
func (nw *Network) planRewrite(n *RealNode, p *prepOut, w *worker) {
	if !p.outChanged {
		return
	}
	nf := p.newFlow
	if old := n.lastFlow; old != nil {
		for _, sp := range old.spans {
			if nf.findSpan(sp.owner) < 0 {
				nw.planOp(n.h(), sp.owner, nf, bucketOp{span: -1, wake: true}, w)
			}
		}
	}
	for si := range nf.spans {
		nw.planOp(n.h(), nf.spans[si].owner, nf, bucketOp{span: int32(si), wake: true}, w)
	}
}

// planOp decides what happens to the sender's standing bucket at one
// recipient and records the rewrite and its dep deltas in w's arenas. op says
// what the sender wants — its contribution (op.span of t, or none when
// negative), whether a content change wakes the recipient, whether the
// span travels as one-shots instead — and planOp fills in the rest
// against the bucket that stands. It is the only place that decision is
// made; buckets are only read here (concurrent prepares may read the
// same recipient's table).
func (nw *Network) planOp(sender handle, dstID ident.ID, t *flowTemplate, op bucketOp, w *worker) {
	slot, ok := nw.pt.lookup(dstID)
	if !ok {
		return // destination departed
	}
	op.dstSlot = slot
	dst := nw.pt.nodes[slot]
	install := op.span >= 0 && !op.oneShot
	if bi := dst.findBucket(sender); bi >= 0 {
		old := dst.in[bi]
		if install && spansEqual(old.flow, old.span, t, op.span) {
			// Content identical: repoint shared storage at the sender's
			// current generation so the old one can die.
			if old.flow != t {
				op.wake = false
				w.ops = append(w.ops, op)
			}
			return
		}
		op.delta = -int32(old.flow.spanLen(old.span))
		appendSpanDeps(&w.deps, old.flow, old.span, slot, -1)
	} else if op.span < 0 {
		return // nothing stands, nothing to revoke
	}
	if install {
		op.delta += int32(t.spanLen(op.span))
		appendSpanDeps(&w.deps, t, op.span, slot, 1)
	}
	w.ops = append(w.ops, op)
}

// appendSpanDeps emits one dep delta of weight k per message in span si
// of t, keyed by the message's Add owner.
func appendSpanDeps(deps *[]depDelta, t *flowTemplate, si int32, slot uint32, k int32) {
	sp := t.spans[si]
	for i := sp.start; i < sp.end; i++ {
		*deps = append(*deps, depDelta{id: t.syms[t.packed[i].sym], slot: slot, k: k})
	}
}

// commitPhase applies commit shard c: bucket ops whose recipient slot
// it owns and dep deltas whose index shard it owns. Scanning every
// prepOut is cheap relative to applying (ops are only emitted for
// changed buckets); the writes are the expensive part and they are
// perfectly partitioned.
func (nw *Network) commitPhase(_ *worker, c int) {
	sh := &nw.commit[c]
	uw := uint32(c)
	uc := uint32(nw.commitW)
	for i := range nw.bActive {
		p := &nw.prep[i]
		if len(p.ops) > 0 {
			n := nw.pt.nodes[nw.bActive[i]]
			h, tpl := n.h(), p.flow(n)
			for k := range p.ops {
				op := &p.ops[k]
				if op.dstSlot%uc != uw {
					continue
				}
				nw.commitBucketOp(h, tpl, op, sh)
			}
		}
		for _, d := range p.deps {
			if depShardOf(d.id)%uc != uw {
				continue
			}
			nw.commitDepDelta(d)
		}
	}
}

// commitBucketOp rewrites one standing bucket; nothing else writes
// RealNode.in or bucketMsgs.
func (nw *Network) commitBucketOp(sender handle, nf *flowTemplate, op *bucketOp, sh *commitShard) {
	dst := nw.pt.nodes[op.dstSlot]
	sh.bucketMsgs += int(op.delta)
	wake := op.wake
	if op.span < 0 || op.oneShot {
		if bi := dst.findBucket(sender); bi >= 0 {
			old := dst.in[bi]
			if old.unread {
				// Content sent but never delivered arrives once, as one-shots.
				dst.inbox = old.flow.appendSpan(dst.inbox, old.span)
				wake = true
			}
			dst.delBucketAt(bi)
			releaseBucket(old, &sh.flow)
		}
	} else {
		installBucket(dst, sender, nf, op.span, &sh.flow)
	}
	if wake && !dst.dirty {
		dst.dirty = true
		sh.frontier = append(sh.frontier, op.dstSlot)
	}
}

// commitDepDelta applies one inverted-index adjustment.
func (nw *Network) commitDepDelta(d depDelta) {
	if d.k > 0 {
		nw.deps.add(d.id, d.slot, uint32(d.k))
	} else {
		nw.deps.remove(d.id, d.slot, uint32(-d.k))
	}
}

// beginCommit sets up a commit partitioned over w workers.
func (nw *Network) beginCommit(w int) {
	nw.commitW = w
	if len(nw.commit) < w {
		nw.commit = append(nw.commit, make([]commitShard, w-len(nw.commit))...)
	}
}

// mergeShards folds the commit workers' private outputs into the
// network and resets them for the next commit.
func (nw *Network) mergeShards() {
	for w := range nw.commit {
		sh := &nw.commit[w]
		nw.bucketMsgs += sh.bucketMsgs
		nw.frontier = append(nw.frontier, sh.frontier...)
		nw.flow.add(&sh.flow)
		sh.bucketMsgs, sh.frontier, sh.flow = 0, sh.frontier[:0], flowTally{}
	}
}

// rewriteBucket is the pipeline run serially for one bucket, for the
// mutation points outside a batch (churn, the partition's Apply):
// plan the op on the caller's own worker, then commit it as a one-shard
// commit.
func (nw *Network) rewriteBucket(sender handle, dstID ident.ID, t *flowTemplate, si int32, wake bool) {
	w := nw.serial()
	o0, d0 := len(w.ops), len(w.deps)
	nw.planOp(sender, dstID, t, bucketOp{span: si, wake: wake}, w)
	nw.beginCommit(1)
	for k := range w.ops[o0:] {
		nw.commitBucketOp(sender, t, &w.ops[o0+k], &nw.commit[0])
	}
	for _, d := range w.deps[d0:] {
		nw.commitDepDelta(d)
	}
	w.ops, w.deps = w.ops[:o0], w.deps[:d0]
	nw.mergeShards()
}
