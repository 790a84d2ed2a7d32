package rechord

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/ref"
)

// This file is the round barrier: the one pipeline through which a
// standing bucket is rewritten, for every scheduler. A batch's phase 3
// is a parallel *prepare*, an ownership-partitioned *commit*, and a
// short serial *epilogue*; out-of-band mutation points (churn, the
// partition's Apply calls) run the same planner and applier serially
// through rewriteBucket.
//
//   - Prepare (parallel over active indexes): each active peer publishes
//     its own view/level slot (no other peer's prepare reads them),
//     takes its outChanged/stateChanged verdicts, diffs its edge sets
//     against its stored dependency multiset, and has its scheduler's
//     plan step turn the output into bucket ops — all written ONLY into
//     its own prepOut. Buckets and the dep index are read, never
//     written. Every plan step funnels through planOp, the single place
//     the rewrite / quiet-repoint / delete decision is made.
//   - Commit (parallel over commit workers): recipients are partitioned
//     by slot (slot % workers) and dependency-index shards by
//     depShardOf(id) % workers, so every standing bucket, dirty flag and
//     index shard has exactly one writing worker. commitBucketOp and
//     commitDepDelta are the only code that writes RealNode.in,
//     bucketMsgs and bucket dep references, or wakes a recipient because
//     its standing input changed.
//   - Epilogue (serial, active order): epoch bumps, settle bookkeeping,
//     lastFlow swaps, paranoid panics deferred out of pool goroutines,
//     the change-set merge feeding wakeDependents, and the scheduler's
//     emit step.
//
// A scheduler differs from the synchronous engine only in its
// flowRouter: what it plans (read-only, in the parallel prepare) and
// what it emits (in the epilogue, in active order, ops in plan order).
// The asynchronous runner draws its delays and the partition feeds its
// sink from emit, so RNG consumption and sink order cannot depend on
// the worker count.
//
// Why Workers=1 and Workers=N stay snapshot-for-snapshot identical:
// every commit write is keyed by (sender handle, recipient slot) or
// (referenced id, dependent slot) and each key is written at most once
// per batch (a plan step emits at most one op per recipient), so the
// final buckets are order-independent; dep index counts commute; the
// frontier is an order-insensitive SET (sorted by identifier before it
// is consumed); and everything order-sensitive runs in the epilogue.
//
// Dep-index deltas tolerate any application order within a shard: every
// remove emitted by prepare refers to a reference that was counted in
// the index before the batch (old bucket contents, old stateDeps
// entries — disjoint categories), so at any prefix of any interleaving
// the entry's count is at least the remaining removes and the underflow
// panic cannot fire spuriously.

// flowRouter is what a scheduler adds around the barrier pipeline.
type flowRouter interface {
	// planFlow stages the bucket ops for sender n's output in p (through
	// planOp), on a pool goroutine: it reads shared state and writes only
	// p. p.outChanged, p.stateChanged and p.newFlow are already set.
	planFlow(n *RealNode, p *prepOut)
	// emitFlow runs after the commit, serially and in active order, with
	// the template the ops point into: whatever the scheduler sends
	// besides standing buckets (delayed one-shots, sink mirrors).
	emitFlow(n *RealNode, tpl *flowTemplate, ops []bucketOp)
}

// batchRun is the persistent fan-out machinery of runBatch: one task
// closure, WaitGroup and work counter reused across every batch (the
// old per-batch runOnPool closure allocated all three each round), plus
// the lazily built per-phase closures, which read the batch parameters
// from the Network's batch fields instead of capturing them.
type batchRun struct {
	wg   sync.WaitGroup
	next atomic.Int64
	n    int
	f    func(i int)
	task func()

	// per-phase bodies, built once on first use
	phase1, phase2, prepare, commit func(i int)

	// anyInbox records that phase 1 consumed a one-shot message
	// somewhere (a global-state change even when no peer state moved).
	anyInbox atomic.Bool
}

// parallelism resolves Config.Workers: the worker count requested and
// the pool size to lazily spawn (sized from the configuration, not
// from any one round's frontier, so a small first round does not cap
// later large rounds).
func (nw *Network) parallelism() int {
	w := nw.cfg.Workers
	if w <= 0 {
		w = defaultWorkers()
	}
	return w
}

// runParallel fans f(i) for i in [0, n) over the worker pool; f must
// only touch per-index/per-peer state (or, for the commit phase,
// state its index exclusively owns). w <= 1 — or a single item — runs
// inline on the caller's goroutine, which is also what keeps paranoid
// panics recoverable in the serial configuration.
func (nw *Network) runParallel(w, poolSize, n int, f func(i int)) {
	if n == 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	pool := nw.ensurePool(poolSize)
	if w > pool.size {
		w = pool.size
	}
	br := &nw.br
	if br.task == nil {
		br.task = func() {
			defer br.wg.Done()
			for {
				i := int(br.next.Add(1)) - 1
				if i >= br.n {
					return
				}
				br.f(i)
			}
		}
	}
	br.n, br.f = n, f
	br.next.Store(0)
	br.wg.Add(w)
	for k := 0; k < w; k++ {
		pool.tasks <- br.task
	}
	br.wg.Wait()
	br.f = nil // do not pin a stale closure between batches
}

// prepOut is the per-active-index output of the parallel prepare
// sub-phase. Entries are reused across batches (sized alongside
// results/pres and dropped with them when the frontier contracts).
type prepOut struct {
	ownerChanged bool // the peer's level span moved
	outChanged   bool // total output differs from lastOut
	stateChanged bool // the settle decision (content hashes moved)
	paranoidBad  bool // clone cross-check disagreed; panic in epilogue

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

	// scratch: recipient grouping (frozen into newFlow before the
	// commit), the output-diff cursors, the template symbol collector,
	// and the stateDeps diff buffers.
	groups  []rrGroup
	cursors []uint32
	symbuf  []ident.ID
	owners  []ident.ID
	counts  []ownerCount
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

// prepareIndex is the parallel prepare body for active index i: the
// publish diff, the settle verdicts, and the bucket ops and dep deltas
// the commit will apply. Writes touch only the peer's own
// view/maxLv/stateDeps slots and prep[i].
func (nw *Network) prepareIndex(i int) {
	slot := nw.bActive[i]
	n := nw.pt.nodes[slot]
	res := &nw.results[i]
	p := &nw.prep[i]
	p.viewRefs = p.viewRefs[:0]
	p.ops = p.ops[:0]
	p.deps = p.deps[:0]
	p.ownerChanged, p.paranoidBad = false, false

	id := n.id
	// Publish the peer's level so other peers' purges detect stale
	// references to its deleted virtual nodes. Own-slot write: nothing
	// else reads maxLv or the view during prepare.
	oldMax := int(nw.pt.maxLv[slot])
	newMax := n.MaxLevel()
	if newMax != oldMax {
		nw.pt.maxLv[slot] = int32(newMax)
		p.ownerChanged = true
	}
	// Publish rl/rr changes (including entries of deleted levels).
	vs := nw.view[slot]
	for lvl := newMax + 1; lvl < len(vs); lvl++ {
		if vs[lvl] != (viewEntry{}) {
			p.viewRefs = append(p.viewRefs, ref.Virtual(id, lvl))
		}
	}
	if len(vs) > newMax+1 {
		vs = vs[:newMax+1]
	}
	for len(vs) <= newMax {
		vs = append(vs, viewEntry{})
	}
	for lvl, v := range n.vnodes {
		cur := viewEntry{}
		if v != nil {
			cur = publish(v)
		}
		if vs[lvl] != cur {
			vs[lvl] = cur
			p.viewRefs = append(p.viewRefs, ref.Virtual(id, lvl))
		}
	}
	nw.view[slot] = vs

	// The settle decision is the phase-2 hash comparison; ParanoidSettle
	// re-derives it from the deep clone and insists they agree. The
	// panic is deferred to the serial epilogue: a panic raised on a pool
	// goroutine could not be recovered by the tests that prove the
	// paranoid mode catches injected collisions.
	p.stateChanged = false
	if nw.bSettle {
		p.stateChanged = res.hchanged
		if nw.cfg.ParanoidSettle {
			if cloneChanged := !n.vnodesEqual(nw.pres[i]); cloneChanged != p.stateChanged {
				p.paranoidBad = true
			}
		}
	}
	if nw.cfg.ParanoidSettle && n.lastFlow != nil {
		// Write barrier over the shared representation: any in-place
		// mutation of the (immutable) template since build panics here.
		n.lastFlow.verify("lastFlow of " + id.String())
	}
	p.outChanged = !flowEqualsOutput(n.lastFlow, res.out, &p.cursors)
	p.newFlow = nil
	if p.outChanged {
		nw.prepFlow(res.out, p)
	}
	if res.hchanged {
		// The peer's edge sets changed: re-derive its dependency
		// contribution and turn the diff into commit deltas.
		nw.prepStateDeps(slot, n, p)
	}
	if nw.router != nil {
		nw.router.planFlow(n, p)
	} else {
		nw.planRewrite(n, p)
	}
}

// prepStateDeps recomputes the peer's edge-set dependency multiset: the
// result replaces the peer's own stateDeps slot (an own-slot write) and
// the difference against the stored one becomes index deltas for the
// commit. Linear in the peer's own edge sets, and only spent when its
// content hash changed.
func (nw *Network) prepStateDeps(slot uint32, n *RealNode, p *prepOut) {
	buf := p.owners[:0]
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, r := range v.Nu.Slice() {
			buf = append(buf, r.Owner)
		}
		for _, r := range v.Nr.Slice() {
			buf = append(buf, r.Owner)
		}
		for _, r := range v.Nc.Slice() {
			buf = append(buf, r.Owner)
		}
	}
	ident.Sort(buf)
	p.owners = buf

	nc := p.counts[:0]
	for i := 0; i < len(buf); {
		j := i
		for j < len(buf) && buf[j] == buf[i] {
			j++
		}
		nc = append(nc, ownerCount{owner: buf[i], cnt: uint32(j - i)})
		i = j
	}
	p.counts = nc

	old := nw.stateDeps[slot]
	i, j := 0, 0
	for i < len(old) || j < len(nc) {
		switch {
		case j == len(nc) || (i < len(old) && old[i].owner < nc[j].owner):
			p.deps = append(p.deps, depDelta{id: old[i].owner, slot: slot, k: -int32(old[i].cnt)})
			i++
		case i == len(old) || nc[j].owner < old[i].owner:
			p.deps = append(p.deps, depDelta{id: nc[j].owner, slot: slot, k: int32(nc[j].cnt)})
			j++
		default:
			if nc[j].cnt != old[i].cnt {
				p.deps = append(p.deps, depDelta{id: nc[j].owner, slot: slot, k: int32(nc[j].cnt) - int32(old[i].cnt)})
			}
			i++
			j++
		}
	}
	nw.stateDeps[slot] = append(old[:0], nc...)
}

// groupByRecipient sorts out into per-recipient groups (preserving
// per-recipient emission order) using groups as reusable storage.
// Returns the grown storage and the number of live groups.
func groupByRecipient(groups []rrGroup, out []Message) ([]rrGroup, int) {
	ng := 0
	for _, m := range out {
		owner := m.To.Owner
		lo, hi := 0, ng
		for lo < hi {
			mid := (lo + hi) / 2
			if groups[mid].owner < owner {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == ng || groups[lo].owner != owner {
			if ng == len(groups) {
				groups = append(groups, rrGroup{})
			}
			ins := groups[ng] // recycle the spare entry's msgs buffer
			copy(groups[lo+1:ng+1], groups[lo:ng])
			ins.owner = owner
			ins.msgs = ins.msgs[:0]
			groups[lo] = ins
			ng++
		}
		groups[lo].msgs = append(groups[lo].msgs, m)
	}
	return groups, ng
}

// prepFlow freezes the sender's new output into p.newFlow. The
// template is born with one reference, which the epilogue hands to the
// peer's lastFlow; bucket installs take their own.
func (nw *Network) prepFlow(out []Message, p *prepOut) {
	var ng int
	p.groups, ng = groupByRecipient(p.groups, out)
	p.newFlow, p.symbuf = buildFlow(p.groups, ng, len(out), p.symbuf)
}

// planRewrite is the synchronous plan step (the partition's too): when
// the output changed, every recipient's standing bucket is rewritten to
// the new contribution and wakes the recipient. Recipients of the old
// flow with no new contribution come first, then the new spans.
func (nw *Network) planRewrite(n *RealNode, p *prepOut) {
	if !p.outChanged {
		return
	}
	nf := p.newFlow
	if old := n.lastFlow; old != nil {
		for _, sp := range old.spans {
			if nf.findSpan(sp.owner) < 0 {
				nw.planOp(n.h(), sp.owner, nf, bucketOp{span: -1, wake: true}, p)
			}
		}
	}
	for si := range nf.spans {
		nw.planOp(n.h(), nf.spans[si].owner, nf, bucketOp{span: int32(si), wake: true}, p)
	}
}

// planOp decides what happens to the sender's standing bucket at one
// recipient and records the rewrite and its dep deltas in p. op says
// what the sender wants — its contribution (op.span of t, or none when
// negative), whether a content change wakes the recipient, whether the
// span travels as one-shots instead — and planOp fills in the rest
// against the bucket that stands. It is the only place that decision is
// made; buckets are only read here (concurrent prepares may read the
// same recipient's table).
func (nw *Network) planOp(sender handle, dstID ident.ID, t *flowTemplate, op bucketOp, p *prepOut) {
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
			// current generation so the old one can die. A private bucket
			// (deep-copy mode, partition shadows) pins no generation.
			if old.flow != t && !old.flow.private {
				op.wake = false
				p.ops = append(p.ops, op)
			}
			return
		}
		op.delta = -int32(old.flow.spanLen(old.span))
		appendSpanDeps(&p.deps, old.flow, old.span, slot, -1)
	} else if op.span < 0 {
		return // nothing stands, nothing to revoke
	}
	if install {
		op.delta += int32(t.spanLen(op.span))
		appendSpanDeps(&p.deps, t, op.span, slot, 1)
	}
	p.ops = append(p.ops, op)
}

// appendSpanDeps emits one dep delta of weight k per message in span si
// of t, keyed by the message's Add owner.
func appendSpanDeps(deps *[]depDelta, t *flowTemplate, si int32, slot uint32, k int32) {
	sp := t.spans[si]
	for i := sp.start; i < sp.end; i++ {
		*deps = append(*deps, depDelta{id: t.syms[t.packed[i].sym], slot: slot, k: k})
	}
}

// commitWorker applies the shard owned by commit worker w: bucket ops
// whose recipient slot it owns and dep deltas whose index shard it
// owns. Scanning every prepOut is cheap relative to applying (ops are
// only emitted for changed buckets); the writes are the expensive part
// and they are perfectly partitioned.
func (nw *Network) commitWorker(w int) {
	sh := &nw.commit[w]
	uw := uint32(w)
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
				nw.commitBucketOp(w, h, tpl, op, sh)
			}
		}
		for _, d := range p.deps {
			if depShardOf(d.id)%uc != uw {
				continue
			}
			nw.commitDepDelta(w, d)
		}
	}
}

// commitBucketOp rewrites one standing bucket; nothing else writes
// RealNode.in or bucketMsgs. The ownership audit
// (under ParanoidSettle) re-derives the op's owner from the slot
// partition and panics on a cross-shard write: the selection filter in
// commitWorker and this check must agree by construction, so a firing
// audit means the partitioning itself regressed.
func (nw *Network) commitBucketOp(w int, sender handle, nf *flowTemplate, op *bucketOp, sh *commitShard) {
	if nw.cfg.ParanoidSettle && int(op.dstSlot)%nw.commitW != w {
		panic(fmt.Sprintf("rechord: cross-shard bucket write: slot %d belongs to commit worker %d, written by %d",
			op.dstSlot, int(op.dstSlot)%nw.commitW, w))
	}
	dst := nw.pt.nodes[op.dstSlot]
	sh.bucketMsgs += int(op.delta)
	if op.span < 0 || op.oneShot {
		if bi := dst.findBucket(sender); bi >= 0 {
			old := dst.in[bi]
			dst.delBucketAt(bi)
			releaseBucket(old, &sh.flow)
		}
	} else {
		nw.installBucket(dst, sender, nf, op.span, &sh.flow)
	}
	if op.wake && !dst.dirty {
		dst.dirty = true
		sh.frontier = append(sh.frontier, op.dstSlot)
	}
}

// commitDepDelta applies one inverted-index adjustment, with the same
// cross-shard audit as the bucket path.
func (nw *Network) commitDepDelta(w int, d depDelta) {
	if nw.cfg.ParanoidSettle && int(depShardOf(d.id))%nw.commitW != w {
		panic(fmt.Sprintf("rechord: cross-shard dep write: id %s belongs to commit worker %d, written by %d",
			d.id, int(depShardOf(d.id))%nw.commitW, w))
	}
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
// mutation points outside a batch (churn, the partition's Apply calls):
// plan the op, then commit it as a one-worker commit.
func (nw *Network) rewriteBucket(sender handle, dstID ident.ID, t *flowTemplate, si int32, wake bool) {
	p := &nw.oob
	nw.planOp(sender, dstID, t, bucketOp{span: si, wake: wake}, p)
	nw.beginCommit(1)
	for k := range p.ops {
		nw.commitBucketOp(0, sender, t, &p.ops[k], &nw.commit[0])
	}
	for _, d := range p.deps {
		nw.commitDepDelta(0, d)
	}
	p.ops, p.deps = p.ops[:0], p.deps[:0]
	nw.mergeShards()
}
