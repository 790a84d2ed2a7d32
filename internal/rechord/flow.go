package rechord

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Shared flow templates: the compact at-rest representation of
// standing flows. At stability a sender's relay output repeats
// verbatim every round, so the recipient-side deep copies of those
// messages are pure duplication. A flowTemplate freezes one batch's
// output into an immutable, refcounted object; the sender's lastFlow
// and every recipient bucket reference spans of the same template
// instead of each holding a []Message copy.
//
// Immutability is what makes the sharing safe: the engine only ever
// *replaces* a bucket (the bucket-replace invariant — rules never edit
// standing messages in place), so once built, a template's bytes are
// never written again. The reference engine's messages are private
// copies, so an in-place write shows up as a divergence from it
// (TestInPlaceTemplateWriteDivergesFromReference).
//
// Messages are stored packed: the Add owner (the only full ident.ID a
// standing message carries besides its recipient) is interned into a
// sorted symbol table, and the two levels plus the edge kind share one
// meta word. A packed record is 8 bytes against Message's 40; the
// recipient owner is stored once per span, not per message. A new
// generation is built from its predecessor (freezeFlow): the spans whose
// messages did not change are copied record for record, and the symbol
// table is the predecessor's own array while its set is unchanged.

const (
	// pmLevelBits is wide enough for ident.MaxLevel (62) with room to
	// spare; two level fields and the kind share one uint32.
	pmLevelBits = 14
	pmLevelMask = 1<<pmLevelBits - 1
	pmKindShift = 2 * pmLevelBits

	// msgBytes is the deep-copy cost of one standing message — the
	// unit the shared-vs-unique telemetry reports so the numbers are
	// directly comparable with the pre-sharing representation.
	msgBytes = int(unsafe.Sizeof(Message{}))
)

// packedMsg is one standing message at rest: the Add owner as an index
// into the template's symbol table, and kind + To.Level + Add.Level
// packed into meta. The To owner is implicit in the enclosing span.
type packedMsg struct {
	sym  uint32
	meta uint32
}

// flowSpan is one recipient's contiguous slice of the packed stream,
// in emission order.
type flowSpan struct {
	owner      ident.ID
	start, end uint32
}

// flowTemplate is an immutable snapshot of one sender's per-round
// output, grouped by recipient. refs counts the sender's lastFlow
// reference plus one per recipient bucket; it is atomic because the
// sharded commit releases old buckets from parallel workers.
type flowTemplate struct {
	refs    atomic.Int32
	private bool // one bucket's own copy: a clone's, or a remote sender's at its recipient's host
	packed  []packedMsg
	spans   []flowSpan // sorted by owner
	syms    []ident.ID // sorted, deduped Add owners; may be a predecessor's array
}

// footprint is the resident size of the template itself.
func (t *flowTemplate) footprint() int {
	return int(unsafe.Sizeof(*t)) +
		len(t.packed)*int(unsafe.Sizeof(packedMsg{})) +
		len(t.spans)*int(unsafe.Sizeof(flowSpan{})) +
		len(t.syms)*8
}

// retain takes one reference and returns t for call-site convenience.
func (t *flowTemplate) retain() *flowTemplate {
	t.refs.Add(1)
	return t
}

// release drops one reference and reports whether it was the last; the
// caller owns the accounting, the garbage collector owns the bytes.
func (t *flowTemplate) release() bool {
	return t.refs.Add(-1) == 0
}

// searchSpans finds owner in a span list sorted by recipient: its index,
// or where it would be inserted.
func searchSpans(spans []flowSpan, owner ident.ID) (int, bool) {
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if spans[mid].owner < owner {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(spans) && spans[lo].owner == owner
}

// findSpan returns the index of owner's span, or -1.
func (t *flowTemplate) findSpan(owner ident.ID) int32 {
	if i, ok := searchSpans(t.spans, owner); ok {
		return int32(i)
	}
	return -1
}

// spanLen is the number of messages in span si.
func (t *flowTemplate) spanLen(si int32) int {
	sp := t.spans[si]
	return int(sp.end - sp.start)
}

// msgAt reconstitutes the full Message at packed index i, addressed to
// owner (the enclosing span's recipient).
func (t *flowTemplate) msgAt(owner ident.ID, i uint32) Message {
	pm := t.packed[i]
	return Message{
		To:   ref.Ref{Owner: owner, Level: int(pm.meta >> pmLevelBits & pmLevelMask)},
		Kind: graph.Kind(pm.meta >> pmKindShift),
		Add:  ref.Ref{Owner: t.syms[pm.sym], Level: int(pm.meta & pmLevelMask)},
	}
}

// appendSpan reconstitutes span si onto dst in emission order.
func (t *flowTemplate) appendSpan(dst []Message, si int32) []Message {
	sp := t.spans[si]
	for i := sp.start; i < sp.end; i++ {
		dst = append(dst, t.msgAt(sp.owner, i))
	}
	return dst
}

// appendAll reconstitutes the whole template onto dst.
func (t *flowTemplate) appendAll(dst []Message) []Message {
	for si := range t.spans {
		dst = t.appendSpan(dst, int32(si))
	}
	return dst
}

// spansEqual compares span ai of a with span bi of b element-wise.
func spansEqual(a *flowTemplate, ai int32, b *flowTemplate, bi int32) bool {
	if a == b && ai == bi {
		return true
	}
	sa, sb := a.spans[ai], b.spans[bi]
	if sa.owner != sb.owner || sa.end-sa.start != sb.end-sb.start {
		return false
	}
	pa, pb := a.packed[sa.start:sa.end], b.packed[sb.start:sb.end]
	for k := range pa {
		if pa[k].meta != pb[k].meta || a.syms[pa[k].sym] != b.syms[pb[k].sym] {
			return false
		}
	}
	return true
}

// packMeta packs m's kind and levels into a meta word, or returns ^0 —
// which no packed record carries — when a level exceeds the packed range.
func packMeta(m Message) uint32 {
	if uint(m.To.Level) > pmLevelMask || uint(m.Add.Level) > pmLevelMask {
		return ^uint32(0)
	}
	return uint32(m.Kind)<<pmKindShift | uint32(m.To.Level)<<pmLevelBits | uint32(m.Add.Level)
}

// packMsg encodes m against the sorted symbol table.
func packMsg(m Message, syms []ident.ID) packedMsg {
	meta := packMeta(m)
	if meta == ^uint32(0) {
		panic("rechord: message level exceeds packed-storage range")
	}
	sym, _ := slices.BinarySearch(syms, m.Add.Owner)
	return packedMsg{sym: uint32(sym), meta: meta}
}

// spanDiff is one recipient of a run's output held against the sender's
// previous template: how many messages the output addresses to it, its
// span in the previous template (-1: none), and whether that span holds
// exactly these messages in emission order.
type spanDiff struct {
	owner ident.ID
	n     uint32
	old   int32
	same  bool
}

// diffFlow compares out with old recipient by recipient and reports
// whether they differ: a recipient's messages changed (order within a
// recipient included), a recipient appeared, or one vanished.
// Cross-recipient interleaving is not compared: delivery is per recipient
// (each bucket replays its own span), and the deterministic rules emit
// per-recipient sequences in a fixed order anyway.
//
// The per-recipient verdicts stay in w for freezeFlow: w.diff in order of
// first appearance in out, w.order the same entries sorted by recipient,
// w.at the entry of each message of out. One search of the (small) sorted
// recipient list per message, skipped while consecutive messages share a
// recipient, and one comparison with the old span's record at the
// recipient's cursor.
func diffFlow(old *flowTemplate, out []Message, w *worker) bool {
	diff, order, at := w.diff[:0], w.order[:0], w.at[:0]
	d := int32(-1)
	for mi := range out {
		m := &out[mi]
		owner := m.To.Owner
		if d < 0 || diff[d].owner != owner {
			i, hi := 0, len(order)
			for i < hi {
				if mid := int(uint(i+hi) >> 1); diff[order[mid]].owner < owner {
					i = mid + 1
				} else {
					hi = mid
				}
			}
			if i < len(order) && diff[order[i]].owner == owner {
				d = order[i]
			} else {
				d = int32(len(diff))
				sd := spanDiff{owner: owner, old: -1}
				if old != nil {
					sd.old = old.findSpan(owner)
					sd.same = sd.old >= 0
				}
				diff = append(diff, sd)
				order = slices.Insert(order, i, d)
			}
		}
		sd := &diff[d]
		if sd.same {
			// The recipient matches by construction; compare the rest packed.
			sp := old.spans[sd.old]
			i := sp.start + sd.n
			sd.same = i < sp.end && old.packed[i].meta == packMeta(*m) && old.syms[old.packed[i].sym] == m.Add.Owner
		}
		sd.n++
		at = append(at, d)
	}
	w.diff, w.order, w.at = diff, order, at
	changed := false
	for k := range diff {
		sd := &diff[k]
		sd.same = sd.same && int(sd.n) == old.spanLen(sd.old)
		changed = changed || !sd.same
	}
	if old != nil {
		// Every recipient matched a distinct old span, so one vanished
		// exactly when the counts differ.
		return changed || len(diff) != len(old.spans)
	}
	return changed
}

// freezeFlow packs out into a fresh template carrying one reference for
// the caller, on top of the verdicts diffFlow(old, out, w) just left in
// w: spans come out sorted by recipient with emission order preserved
// inside; a recipient whose messages did not change copies its packed
// records from old, and only the others are packed from out. Building
// from nothing is the old == nil case. The result equals a from-scratch
// build field by field (TestFreezeMatchesScratch); the only allocations
// are the template's own exact-size arrays, and not even the symbol table
// when its set did not change.
func freezeFlow(old *flowTemplate, out []Message, w *worker) *flowTemplate {
	t := &flowTemplate{
		packed: make([]packedMsg, len(out)),
		spans:  make([]flowSpan, len(w.order)),
	}
	cur := slices.Grow(w.cursors[:0], len(w.diff))[:len(w.diff)]
	at := uint32(0)
	for si, d := range w.order {
		t.spans[si] = flowSpan{owner: w.diff[d].owner, start: at, end: at + w.diff[d].n}
		cur[d] = at
		at += w.diff[d].n
	}
	w.cursors = cur
	var remap bool
	t.syms, remap = w.freezeSyms(old, out)
	for si, d := range w.order {
		if sd := w.diff[d]; sd.same {
			sp := old.spans[sd.old]
			dst := t.packed[t.spans[si].start:t.spans[si].end]
			copy(dst, old.packed[sp.start:sp.end])
			if remap {
				for k := range dst {
					dst[k].sym = w.symMap[dst[k].sym]
				}
			}
		}
	}
	for i, m := range out {
		if d := w.at[i]; !w.diff[d].same {
			t.packed[cur[d]] = packMsg(m, t.syms)
			cur[d]++
		}
	}
	t.refs.Store(1)
	return t
}

// freezeSyms returns the symbol table of the template freezeFlow builds:
// the sorted distinct Add owners of out. Those of the copied spans are
// old symbols by construction, so old's table is reused as is when the
// changed spans bring no new owner and no old one fell out of use;
// otherwise the used old symbols and the new owners are merged into a
// fresh table, and remap reports that w.symMap translates an old symbol
// index into the new table.
func (w *worker) freezeSyms(old *flowTemplate, out []Message) (syms []ident.ID, remap bool) {
	var oldSyms []ident.ID
	if old != nil {
		oldSyms = old.syms
	}
	used := slices.Grow(w.symMap[:0], len(oldSyms))[:len(oldSyms)]
	clear(used)
	for _, sd := range w.diff {
		if sd.same {
			sp := old.spans[sd.old]
			for _, pm := range old.packed[sp.start:sp.end] {
				used[pm.sym] = 1
			}
		}
	}
	fresh := w.syms[:0]
	for i, m := range out {
		if w.diff[w.at[i]].same {
			continue
		}
		if k, ok := slices.BinarySearch(oldSyms, m.Add.Owner); ok {
			used[k] = 1
		} else {
			fresh = append(fresh, m.Add.Owner)
		}
	}
	w.symMap, w.syms = used, fresh
	if len(fresh) == 0 && !slices.Contains(used, 0) {
		return oldSyms, false
	}
	ident.Sort(fresh)
	fresh = slices.Compact(fresh)
	n := len(fresh)
	for _, u := range used {
		n += int(u)
	}
	syms = make([]ident.ID, 0, n)
	j := 0
	for k, id := range oldSyms {
		if used[k] == 0 {
			continue
		}
		for ; j < len(fresh) && fresh[j] < id; j++ {
			syms = append(syms, fresh[j])
		}
		used[k] = uint32(len(syms))
		syms = append(syms, id)
	}
	return append(syms, fresh[j:]...), true
}

// cloneSpan freezes span si of t into a fresh private single-span
// template that *shares* t's packed records and symbol table — safe
// because template bytes are immutable once built (the bucket-replace
// invariant), and release only drops refcounts, never frees or edits
// storage. Snapshot clones use it: they take no reference, so they
// don't appear in the engine's flow accounting, and the GC keeps the
// shared arrays alive for as long as the snapshot needs them.
func (t *flowTemplate) cloneSpan(si int32) *flowTemplate {
	sp := t.spans[si]
	c := &flowTemplate{
		private: true,
		packed:  t.packed[sp.start:sp.end:sp.end],
		spans:   []flowSpan{{owner: sp.owner, end: sp.end - sp.start}},
		syms:    t.syms,
	}
	c.refs.Store(1)
	return c
}

// bucket is one standing contribution at a recipient: span si of the
// sender's flow template. ~24 bytes against the former map entry plus
// []Message backing.
type bucket struct {
	sender handle
	span   int32
	unread bool // installed with a wake by the async runner, not yet delivered
	flow   *flowTemplate
}

// findBucket returns the index of sender's bucket in the sorted table,
// or -1.
func (n *RealNode) findBucket(sender handle) int {
	lo, hi := 0, len(n.in)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.in[mid].sender < sender {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.in) && n.in[lo].sender == sender {
		return lo
	}
	return -1
}

// setBucket inserts or replaces sender's bucket, keeping the table
// sorted. Returns the replaced bucket, if any. Refcounts are the
// caller's responsibility.
func (n *RealNode) setBucket(sender handle, t *flowTemplate, si int32) (old bucket, existed bool) {
	lo, hi := 0, len(n.in)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.in[mid].sender < sender {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.in) && n.in[lo].sender == sender {
		old = n.in[lo]
		n.in[lo] = bucket{sender: sender, span: si, unread: old.unread, flow: t}
		return old, true
	}
	n.in = append(n.in, bucket{})
	copy(n.in[lo+1:], n.in[lo:])
	n.in[lo] = bucket{sender: sender, span: si, flow: t}
	return bucket{}, false
}

// delBucketAt removes the bucket at index bi. Refcounts are the
// caller's responsibility.
func (n *RealNode) delBucketAt(bi int) {
	copy(n.in[bi:], n.in[bi+1:])
	n.in[len(n.in)-1] = bucket{}
	n.in = n.in[:len(n.in)-1]
}

// flowTally accumulates flow-storage accounting. The Network holds the
// authoritative copy; each commitShard accumulates a local one during
// the parallel commit, merged at the barrier.
type flowTally struct {
	births, deaths int // templates created / fully released
	residentBytes  int // footprint delta of created minus released
	sharedBytes    int // deep-equivalent bytes of buckets on shared templates
	uniqueBytes    int // deep-equivalent bytes of buckets on private templates
	installsShared int
	installsCopied int
}

func (ft *flowTally) add(o *flowTally) {
	ft.births += o.births
	ft.deaths += o.deaths
	ft.residentBytes += o.residentBytes
	ft.sharedBytes += o.sharedBytes
	ft.uniqueBytes += o.uniqueBytes
	ft.installsShared += o.installsShared
	ft.installsCopied += o.installsCopied
}

// tallyBirth records a freshly built template.
func (ft *flowTally) tallyBirth(t *flowTemplate) {
	ft.births++
	ft.residentBytes += t.footprint()
}

// releaseFlow drops a non-bucket reference (lastFlow, or a builder's
// handoff reference) and accounts the death if it was the last.
func releaseFlow(t *flowTemplate, ft *flowTally) {
	fp := t.footprint()
	if t.release() {
		ft.deaths++
		ft.residentBytes -= fp
	}
}

// releaseBucket drops a bucket's reference including its
// shared/unique byte classification.
func releaseBucket(b bucket, ft *flowTally) {
	bytes := b.flow.spanLen(b.span) * msgBytes
	if b.flow.private {
		ft.uniqueBytes -= bytes
	} else {
		ft.sharedBytes -= bytes
	}
	releaseFlow(b.flow, ft)
}

// installBucket points dst's bucket for sender at span si of t. Handles
// refcounts and tally only; deps, bucketMsgs, and dirty are the caller's.
func installBucket(dst *RealNode, sender handle, t *flowTemplate, si int32, ft *flowTally) {
	t.retain()
	bytes := t.spanLen(si) * msgBytes
	if t.private {
		ft.uniqueBytes += bytes
		ft.installsCopied++
	} else {
		ft.sharedBytes += bytes
		ft.installsShared++
	}
	if old, existed := dst.setBucket(sender, t, si); existed {
		releaseBucket(old, ft)
	}
}
