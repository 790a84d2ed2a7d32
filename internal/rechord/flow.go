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
// per-template sorted symbol table, and the two levels plus the edge
// kind share one meta word. A packed record is 8 bytes against
// Message's 40; the recipient owner is stored once per span, not per
// message.

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
	private bool // shadow- or clone-owned; never shared across peers
	packed  []packedMsg
	spans   []flowSpan // sorted by owner
	syms    []ident.ID // sorted, deduped Add owners
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
	if sa.end-sa.start != sb.end-sb.start {
		return false
	}
	for k := uint32(0); k < sa.end-sa.start; k++ {
		if a.msgAt(sa.owner, sa.start+k) != b.msgAt(sb.owner, sb.start+k) {
			return false
		}
	}
	return true
}

// packMsg encodes m against the sorted symbol table.
func packMsg(m Message, syms []ident.ID) packedMsg {
	lo, hi := 0, len(syms)
	for lo < hi {
		mid := (lo + hi) / 2
		if syms[mid] < m.Add.Owner {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if uint(m.To.Level) > pmLevelMask || uint(m.Add.Level) > pmLevelMask {
		panic("rechord: message level exceeds packed-storage range")
	}
	return packedMsg{
		sym:  uint32(lo),
		meta: uint32(m.Kind)<<pmKindShift | uint32(m.To.Level)<<pmLevelBits | uint32(m.Add.Level),
	}
}

// freezeFlow freezes one run's output into a fresh template carrying one
// reference for the caller, reading out in place: a first pass collects
// the sorted distinct recipients with their message counts and the Add
// owners (into w's scratch), a prefix sum turns the counts into spans,
// and a second pass packs each message at its span's cursor — so spans
// come out sorted by recipient with emission order preserved inside, and
// the only allocations are the template's own exact-size arrays.
func freezeFlow(out []Message, w *worker) *flowTemplate {
	spans, syms := w.spans[:0], w.syms[:0]
	for _, m := range out {
		syms = append(syms, m.Add.Owner)
		i, ok := searchSpans(spans, m.To.Owner)
		if !ok {
			spans = slices.Insert(spans, i, flowSpan{owner: m.To.Owner})
		}
		spans[i].end++
	}
	ident.Sort(syms)
	w.spans, w.syms = spans, syms
	t := &flowTemplate{
		packed: make([]packedMsg, len(out)),
		spans:  slices.Clone(spans),
		syms:   slices.Clone(slices.Compact(syms)),
	}
	cur := w.cursors[:0]
	at := uint32(0)
	for i := range t.spans {
		sp := &t.spans[i]
		sp.start, sp.end = at, at+sp.end
		cur = append(cur, at)
		at = sp.end
	}
	w.cursors = cur
	for _, m := range out {
		si := t.findSpan(m.To.Owner)
		t.packed[cur[si]] = packMsg(m, t.syms)
		cur[si]++
	}
	t.refs.Store(1)
	return t
}

// buildPrivateFlow freezes one recipient's contribution into a
// single-span private template (ref 1). Used for partition shadow
// buckets — never shared.
func buildPrivateFlow(owner ident.ID, ms []Message) *flowTemplate {
	symbuf := make([]ident.ID, 0, len(ms))
	for _, m := range ms {
		symbuf = append(symbuf, m.Add.Owner)
	}
	ident.Sort(symbuf)
	syms := slices.Compact(symbuf)
	t := &flowTemplate{
		private: true,
		packed:  make([]packedMsg, 0, len(ms)),
		spans:   []flowSpan{{owner: owner, end: uint32(len(ms))}},
		syms:    syms,
	}
	for _, m := range ms {
		t.packed = append(t.packed, packMsg(m, syms))
	}
	t.refs.Store(1)
	return t
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

// flowEqualsOutput reports whether out carries exactly t's messages
// with per-recipient order preserved. Cross-recipient interleaving is
// not compared: delivery is per-recipient (each bucket replays its own
// span), so outputs that agree group-by-group produce identical
// behavior, and the deterministic rules emit per-recipient sequences
// in a fixed order anyway. The per-span cursors are w's scratch.
func flowEqualsOutput(t *flowTemplate, out []Message, w *worker) bool {
	if t == nil {
		return len(out) == 0
	}
	if len(out) != len(t.packed) {
		return false
	}
	cur := w.cursors[:0]
	for range t.spans {
		cur = append(cur, 0)
	}
	w.cursors = cur
	for _, m := range out {
		si := t.findSpan(m.To.Owner)
		if si < 0 {
			return false
		}
		sp := t.spans[si]
		i := sp.start + cur[si]
		if i >= sp.end || t.msgAt(sp.owner, i) != m {
			return false
		}
		cur[si]++
	}
	// Total lengths match and no span overflowed, so every span is
	// exactly consumed.
	return true
}

// bucket is one standing contribution at a recipient: span si of the
// sender's flow template. ~24 bytes against the former map entry plus
// []Message backing.
type bucket struct {
	sender handle
	span   int32
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
		n.in[lo] = bucket{sender: sender, span: si, flow: t}
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
