package rechord

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Standing-flow contributions: the compact at-rest representation of
// standing flows. At stability a sender's relay output repeats verbatim
// every round, so recipient-side deep copies of those messages would be
// pure duplication. A contribution freezes one sender's messages to one
// recipient into an immutable block; the sender's lastFlow indexes its
// contributions by recipient, and the recipient's bucket points at the
// same block.
//
// The contribution is also the unit of change. When a sender's output
// changes, diffFlow's per-recipient verdicts decide which recipients get
// a fresh contribution; every other recipient keeps the very block its
// bucket points at, so the plan step leaves its bucket, its dep-index
// entries and its dirty flag alone (barrier.go).
//
// Immutability is what makes the sharing safe: the engine only ever
// *replaces* a bucket's contribution (the bucket-replace invariant —
// rules never edit standing messages in place), so once built, a
// contribution's bytes are never written again. The reference engine's
// messages are private copies, so an in-place write shows up as a
// divergence from it (TestInPlaceTemplateWriteDivergesFromReference).
//
// Layout: one block per contribution — a 12-byte header holding the
// recipient and the message count, then one 12-byte record per message
// holding the Add owner and a meta word that packs the kind and both
// levels — against Message's 40 bytes. The recipient is stored once, in
// the header.
//
// Blocks are recycled rather than left to the collector: the contributions
// a batch's epilogue drops from lastFlow are no bucket's any more (the
// commit rewrote or deleted every bucket on them), and a private
// contribution — a partition's copy of a remote sender's records — is
// dropped with its bucket (releaseBucket), so the next batch's freezes
// and the partition's next Apply reuse their blocks (contribPool). A
// block can only be reused while nothing else holds it, which is every
// holder but one: a delayed async handoff keeps its contribution past the
// sender's next change, so emitFlow pins it (pinned), and a pinned block
// goes to the collector.

const (
	// pmLevelBits is wide enough for any Ref level (at most 64) with
	// room to spare; two level fields and the kind share one uint32.
	pmLevelBits = 14
	pmLevelMask = 1<<pmLevelBits - 1
	pmKindShift = 2 * pmLevelBits

	// msgBytes is the deep-copy cost of one standing message — the
	// unit the shared-vs-unique telemetry reports so the numbers are
	// directly comparable with a []Message representation.
	msgBytes = int(unsafe.Sizeof(Message{}))
	// recBytes is the at-rest cost of one standing message, ptrBytes
	// that of one lastFlow index entry.
	recBytes = int(unsafe.Sizeof(Record{}))
	ptrBytes = int(unsafe.Sizeof((*contrib)(nil)))

	// pinned marks, in a contribution's count word, a block that must not
	// be recycled; maxPooled is the largest record count contribPool
	// keeps blocks for.
	pinned    = 1 << 31
	maxPooled = 32
)

// Record is one standing message at rest, and on the wire path a bucket
// update's unit (BucketUpdate.Recs): the Add owner as two words (so a
// record is 12 bytes and 4-aligned) and kind + To.Level + Add.Level
// packed into meta. The recipient's identifier is not in it: the
// contribution (or the bucket update) holding the record names it once.
type Record struct {
	lo, hi, meta uint32
}

// contrib is the header of a contribution block: the recipient, as two
// words, and the number of records that follow it in the same block
// (plus the pinned flag). It has Record's layout, so a block is a
// []Record whose first element is the header.
type contrib struct {
	lo, hi, nf uint32
}

// newContrib allocates a contribution to owner with room for n records.
func newContrib(owner ident.ID, n int) *contrib {
	c := (*contrib)(unsafe.Pointer(&make([]Record, n+1)[0]))
	c.lo, c.hi, c.nf = uint32(owner), uint32(owner>>32), uint32(n)
	return c
}

// owner is the recipient.
func (c *contrib) owner() ident.ID { return ident.ID(c.hi)<<32 | ident.ID(c.lo) }

// count is the number of records.
func (c *contrib) count() int { return int(c.nf &^ pinned) }

// recs returns the records in emission order.
func (c *contrib) recs() []Record {
	return unsafe.Slice((*Record)(unsafe.Pointer(c)), c.count()+1)[1:]
}

// footprint is the resident size of the contribution.
func (c *contrib) footprint() int { return (c.count() + 1) * recBytes }

// appendMsgs reconstitutes the messages onto dst in emission order.
func (c *contrib) appendMsgs(dst []Message) []Message {
	owner := c.owner()
	for _, r := range c.recs() {
		dst = append(dst, r.Message(owner))
	}
	return dst
}

// addID is the identifier of the record's Add node.
func (r Record) addID() ident.ID { return ident.ID(r.hi)<<32 | ident.ID(r.lo) }

// ToLevel is the level of the recipient's virtual node the record
// extends, Kind which of its edge sets, and Add the node it inserts.
func (r Record) ToLevel() int     { return int(r.meta >> pmLevelBits & pmLevelMask) }
func (r Record) Kind() graph.Kind { return graph.Kind(r.meta >> pmKindShift) }
func (r Record) Add() ref.Ref     { return ref.Virtual(r.addID(), int(r.meta&pmLevelMask)) }

// Message reconstitutes the full Message, addressed to the recipient
// to.
func (r Record) Message(to ident.ID) Message {
	return Message{To: ref.Virtual(to, r.ToLevel()), Kind: r.Kind(), Add: r.Add()}
}

// PackRecord encodes m as a record, dropping its recipient's identifier.
// Every Ref level (at most 64) fits its packed field.
func PackRecord(m Message) Record {
	u := m.Add.Owner()
	return Record{lo: uint32(u), hi: uint32(u >> 32), meta: uint32(m.Kind)<<pmKindShift | uint32(m.To.Level())<<pmLevelBits | uint32(m.Add.Level())}
}

// findContrib returns owner's contribution in a flow index sorted by
// recipient, or nil.
func findContrib(flow []*contrib, owner ident.ID) *contrib {
	if i, ok := slices.BinarySearchFunc(flow, owner, func(c *contrib, id ident.ID) int { return cmp.Compare(c.owner(), id) }); ok {
		return flow[i]
	}
	return nil
}

// spanDiff is one recipient of a run's output held against the sender's
// previous flow: how many messages the output addresses to it, where its
// records start in the packed output, the index of its previous
// contribution (-1: none), and whether that contribution holds exactly
// these messages in emission order.
type spanDiff struct {
	owner ident.ID
	n     uint32
	off   uint32
	old   int32
	same  bool
}

// groupSlot is one entry of a worker's recipient table: the recipient and
// its spanDiff, valid while stamp equals the table's.
type groupSlot struct {
	owner ident.ID
	stamp uint32
	d     int32
}

// diffFlow compares out with old recipient by recipient and reports
// whether they differ: a recipient's messages changed (order within a
// recipient included), a recipient appeared, or one vanished.
// Cross-recipient interleaving is not compared: delivery is per recipient
// (each bucket replays its own contribution), and the deterministic rules
// emit per-recipient sequences in a fixed order anyway.
//
// One sweep over out groups it by recipient through w's stamped hash
// table; a counting sort then packs every message's record into w.packed,
// recipients in identifier order and emission order within each, so a
// merge-walk pairs each recipient with its old contribution and one slice
// comparison decides it. The verdicts stay in w for
// freezeFlow: w.diff in order of first appearance in out, w.order the
// same entries sorted by recipient.
func diffFlow(old []*contrib, out []Message, w *worker) bool {
	w.resetGroups()
	diff, at := w.diff[:0], w.at[:0]
	d := int32(-1)
	for mi := range out {
		owner := out[mi].To.Owner()
		if d < 0 || diff[d].owner != owner {
			d, diff = w.group(owner, diff)
		}
		diff[d].n++
		at = append(at, d)
	}
	rcpt := w.rcpt[:0]
	for k := range diff {
		rcpt = append(rcpt, diff[k].owner)
	}
	slices.Sort(rcpt)
	// Offsets in recipient order double as the counting sort's cursors.
	order := w.order[:0]
	off, i := uint32(0), 0
	for _, owner := range rcpt {
		d, _ := w.group(owner, diff)
		order = append(order, d)
		sd := &diff[d]
		sd.off, off = off, off+sd.n
		for i < len(old) && old[i].owner() < sd.owner {
			i++
		}
		if sd.old = -1; i < len(old) && old[i].owner() == sd.owner {
			sd.old = int32(i)
		}
	}
	packed := slices.Grow(w.packed[:0], len(out))[:len(out)]
	for mi := range out {
		sd := &diff[at[mi]]
		packed[sd.off] = PackRecord(out[mi])
		sd.off++
	}
	changed := len(diff) != len(old) // every recipient matched a distinct old one
	for _, d := range order {
		sd := &diff[d]
		sd.off -= sd.n
		sd.same = sd.old >= 0 && slices.Equal(old[sd.old].recs(), packed[sd.off:sd.off+sd.n])
		changed = changed || !sd.same
	}
	w.diff, w.order, w.at, w.packed, w.rcpt = diff, order, at, packed, rcpt
	return changed
}

// resetGroups empties w's recipient table by a new stamp (or, when the
// stamp wraps, by clearing it).
func (w *worker) resetGroups() {
	if w.stamp++; w.stamp == 0 {
		clear(w.groups)
		w.stamp = 1
	}
}

// group returns the index in diff of owner's entry, appending a fresh
// one when owner is new to this output. The table doubles whenever it
// would be more than half full, so it is sized by the most recipients
// one output has had, not by its messages.
func (w *worker) group(owner ident.ID, diff []spanDiff) (int32, []spanDiff) {
	if 2*(len(diff)+1) > len(w.groups) {
		w.growGroups(diff)
	}
	g := w.slot(owner)
	if g.stamp != w.stamp {
		*g = groupSlot{owner: owner, stamp: w.stamp, d: int32(len(diff))}
		diff = append(diff, spanDiff{owner: owner})
	}
	return g.d, diff
}

// slot probes w's recipient table for owner: its slot, or the free one
// where it belongs.
func (w *worker) slot(owner ident.ID) *groupSlot {
	mask := len(w.groups) - 1
	for h := int(uint64(owner) * 0x9e3779b97f4a7c15 >> w.groupShift); ; h = (h + 1) & mask {
		if g := &w.groups[h]; g.stamp != w.stamp || g.owner == owner {
			return g
		}
	}
}

// growGroups doubles w's recipient table (16 slots at first) and enters
// diff's recipients again.
func (w *worker) growGroups(diff []spanDiff) {
	size := max(16, 2*len(w.groups))
	w.groups, w.groupShift, w.stamp = make([]groupSlot, size), uint8(64-bits.Len(uint(size-1))), 1
	for d, sd := range diff {
		*w.slot(sd.owner) = groupSlot{owner: sd.owner, stamp: 1, d: int32(d)}
	}
}

// freezeFlow builds the flow index of the output diffFlow(old, out, w)
// just judged into w.flows and returns it: per recipient in identifier
// order, old's own contribution where the recipient's messages did not
// change, a fresh one holding a copy of its packed records otherwise. The
// result equals a from-scratch build record for record
// (TestFreezeMatchesScratch); the fresh contributions come from w's pool,
// or are its only allocations.
func (w *worker) freezeFlow(old []*contrib) []*contrib {
	k0 := len(w.flows)
	for _, d := range w.order {
		sd := &w.diff[d]
		c := (*contrib)(nil)
		if sd.same {
			c = old[sd.old]
		} else {
			c = w.free.get(sd.owner, int(sd.n))
			copy(c.recs(), w.packed[sd.off:sd.off+sd.n])
		}
		w.flows = append(w.flows, c)
	}
	return w.flows[k0:]
}

// contribPool is a worker's blocks for reuse, by record count: the
// contributions that died by the last epilogue (Network.recycle). A block
// waits there for one batch at most, so a network that stops changing
// holds none.
type contribPool [maxPooled + 1][]*contrib

// get returns a contribution to owner with room for n records, a reused
// block when the pool has one of that size.
func (p *contribPool) get(owner ident.ID, n int) *contrib {
	if n <= maxPooled {
		if s := p[n]; len(s) > 0 {
			c := s[len(s)-1]
			s[len(s)-1] = nil
			p[n] = s[:len(s)-1]
			c.lo, c.hi = uint32(owner), uint32(owner>>32)
			return c
		}
	}
	return newContrib(owner, n)
}

// reset drops the blocks the last batch left unused, and the pool's
// storage with them on release.
func (p *contribPool) reset(release bool) {
	for k, s := range p {
		clear(s)
		p[k] = s[:0]
		if release {
			p[k] = nil
		}
	}
}

// recycle hands the contributions that died since the last batch (the
// ones the epilogue dropped and the released private ones) to the
// workers' pools, dealt round-robin, after dropping what the pools still
// held. A batch that dropped none releases the pools' storage too, so a
// network that stops changing keeps no trace of them.
func (nw *Network) recycle() {
	release := len(nw.dead) == 0
	for _, w := range nw.workers {
		w.free.reset(release)
	}
	if release {
		nw.dead = nil
		return
	}
	for k, c := range nw.dead {
		p := &nw.workers[k%len(nw.workers)].free
		if n := c.count(); n <= maxPooled {
			p[n] = append(p[n], c)
		}
	}
	clear(nw.dead)
	nw.dead = nw.dead[:0]
}

// bucket is one standing contribution at a recipient: 24 bytes. private
// marks a contribution the bucket owns alone — at the host of a remote
// sender's recipient, a pooled copy of a bucket update's records
// (Partition.Apply) — rather than one of its sender's lastFlow.
type bucket struct {
	sender  handle
	c       *contrib
	unread  bool // installed with a wake by the async runner, not yet delivered
	private bool
}

// findBucket returns the index of sender's bucket in the sorted table,
// or -1.
func (n *RealNode) findBucket(sender handle) int {
	if i, ok := n.searchBucket(sender); ok {
		return i
	}
	return -1
}

// searchBucket finds sender's bucket in the sorted table: its index, or
// where it would be inserted.
func (n *RealNode) searchBucket(sender handle) (int, bool) {
	return slices.BinarySearchFunc(n.in, sender, func(b bucket, h handle) int { return cmp.Compare(b.sender, h) })
}

// setBucket inserts or replaces sender's bucket, keeping the table
// sorted. Returns the replaced bucket, if any. Accounting is the
// caller's responsibility.
func (n *RealNode) setBucket(b bucket) (old bucket, existed bool) {
	i, ok := n.searchBucket(b.sender)
	if ok {
		old = n.in[i]
		b.unread = old.unread
		n.in[i] = b
		return old, true
	}
	n.in = slices.Insert(n.in, i, b)
	return bucket{}, false
}

// delBucketAt removes the bucket at index bi. Accounting is the
// caller's responsibility.
func (n *RealNode) delBucketAt(bi int) {
	n.in = slices.Delete(n.in, bi, bi+1)
}

// flowTally accumulates flow-storage accounting; the Network holds the
// one copy. A contribution is live while a sender's lastFlow indexes it
// or, when private, while its bucket stands; the commit keeps every
// other bucket on its sender's lastFlow contribution, so that is every
// contribution a bucket holds.
type flowTally struct {
	contribs       int // live contributions
	adopted        int // changed outputs adopted into a lastFlow
	residentBytes  int // live contributions' blocks plus the lastFlow indexes
	sharedBytes    int // deep-equivalent bytes of buckets on their sender's contributions
	uniqueBytes    int // deep-equivalent bytes of buckets on private contributions
	installsShared int
	installsCopied int
}

// live accounts a contribution becoming live (k = 1) or dying (k = -1).
func (ft *flowTally) live(c *contrib, k int) {
	ft.contribs += k
	ft.residentBytes += k * c.footprint()
}

// adoptFlow makes flow (sorted by recipient) n's lastFlow, reusing the
// index's storage, and accounts the contributions it drops and gains and
// the index's growth. A nil flow releases the index. When dead is not
// nil, the dropped contributions that are not pinned are appended to it.
func (ft *flowTally) adoptFlow(n *RealNode, flow []*contrib, dead *[]*contrib) {
	old := n.lastFlow
	drop := func(c *contrib) {
		ft.live(c, -1)
		if dead != nil && c.nf&pinned == 0 {
			*dead = append(*dead, c)
		}
	}
	i, j := 0, 0
	for i < len(old) || j < len(flow) {
		switch {
		case j == len(flow) || (i < len(old) && old[i].owner() < flow[j].owner()):
			drop(old[i])
			i++
		case i == len(old) || flow[j].owner() < old[i].owner():
			ft.live(flow[j], 1)
			j++
		default:
			if old[i] != flow[j] {
				drop(old[i])
				ft.live(flow[j], 1)
			}
			i++
			j++
		}
	}
	c0 := cap(old)
	if flow == nil {
		n.lastFlow = nil
	} else {
		n.lastFlow = append(old[:0], flow...)
		if len(flow) < len(old) {
			clear(old[len(flow):]) // drop the dead tail's pointers
		}
	}
	ft.residentBytes += (cap(n.lastFlow) - c0) * ptrBytes
}

// installBucket sets b as dst's bucket for b.sender. Handles the tally
// and the replaced bucket's release only; deps, bucketMsgs, and dirty
// are the caller's.
func (nw *Network) installBucket(dst *RealNode, b bucket) {
	ft := &nw.flow
	bytes := b.c.count() * msgBytes
	if b.private {
		ft.live(b.c, 1)
		ft.uniqueBytes += bytes
		ft.installsCopied++
	} else {
		ft.sharedBytes += bytes
		ft.installsShared++
	}
	if old, existed := dst.setBucket(b); existed {
		nw.releaseBucket(old)
	}
}

// releaseBucket accounts a bucket that is replaced or deleted. A private
// contribution dies with its bucket, so its block goes to recycle.
func (nw *Network) releaseBucket(b bucket) {
	ft := &nw.flow
	bytes := b.c.count() * msgBytes
	if b.private {
		ft.live(b.c, -1)
		ft.uniqueBytes -= bytes
		nw.dead = append(nw.dead, b.c)
	} else {
		ft.sharedBytes -= bytes
	}
}
