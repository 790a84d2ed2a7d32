package rechord

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/ref"
)

// Test support shared by the in-package and the rechord_test suites: the
// global-state comparator (Snapshot), the clean-peer invariant, and
// Lockstep, the one harness that runs the product engine against the
// reference engine of reference_test.go.

// Snapshot is a deep copy of the global state at a round boundary: per
// peer, its virtual nodes and — part of the global state of the
// synchronous model, since two states with equal edge sets but different
// pending deliveries evolve differently — its pending messages, in
// canonical order so that comparison is order-insensitive.
type Snapshot struct {
	Round int
	nodes map[ident.ID]*RealNode // vnodes cloned; inbox holds every pending message, sorted
}

func snapshotPeer(n *RealNode) *RealNode {
	c := &RealNode{id: n.id, vnodes: make([]*VNode, len(n.vnodes))}
	for l, v := range n.vnodes {
		if v != nil {
			c.vnodes[l] = v.clone()
		}
	}
	n.eachPending(func(m Message) { c.inbox = append(c.inbox, m) })
	slices.SortFunc(c.inbox, compareMessages)
	return c
}

// TakeSnapshot deep-copies the current state.
func (nw *Network) TakeSnapshot() *Snapshot {
	s := &Snapshot{Round: nw.round, nodes: make(map[ident.ID]*RealNode, nw.pt.live)}
	for _, n := range nw.pt.nodes {
		if n != nil {
			s.nodes[n.id] = snapshotPeer(n)
		}
	}
	return s
}

// Equal reports whether two snapshots are identical global states.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if len(s.nodes) != len(o.nodes) {
		return false
	}
	for id, n := range s.nodes {
		on, ok := o.nodes[id]
		if !ok || !n.vnodesEqual(on.vnodes) || !slices.Equal(n.inbox, on.inbox) {
			return false
		}
	}
	return true
}

// sortedMessages returns a canonically ordered copy.
func sortedMessages(ms []Message) []Message {
	out := slices.Clone(ms)
	slices.SortFunc(out, compareMessages)
	return out
}

// cleanPeersStable checks the invariant the activity tracking rests on:
// a peer that is off the frontier is at a local fixed point — replaying
// its round on a clone changes neither its state nor its output
// (stable is LocallyStable's body). That is the whole content of "the
// settle verdict was right and every input change woke its dependents".
func cleanPeersStable(nw *Network, stable func(ident.ID, *worker) bool) error {
	w := new(worker)
	for _, id := range nw.order {
		if !nw.node(id).dirty && !stable(id, w) {
			return fmt.Errorf("peer %s is off the frontier but not at a local fixed point", id)
		}
	}
	return nil
}

// AssertCleanPeersStable fails the test unless every peer of s that is
// off the frontier passes LocallyStable. A partition replays only the
// peers it hosts (its stubs replicate published state, not edge sets).
// The asynchronous scheduler is checked at quiescence only: mid-run, a
// revoked bucket whose one-shot is still in flight is legitimate.
func AssertCleanPeersStable(t testing.TB, s Scheduler) {
	t.Helper()
	if a, ok := s.(*AsyncRunner); ok && !a.Quiescent() {
		return
	}
	nw := s.Network()
	stable := func(id ident.ID, w *worker) bool { return !nw.runsHere(id) || nw.locallyStable(id, w) }
	if err := cleanPeersStable(nw, stable); err != nil {
		t.Fatalf("time %d: %v", s.Time(), err)
	}
}

// CheckFreeze replays every frontier peer the way LocallyStable does —
// deliver, purge and rules 1-6 on a clone, with a private worker — and
// holds the diff of its output against its lastFlow and the template
// frozen from it to the from-scratch oracles (checkFreeze). It returns
// how many peers it replayed.
func CheckFreeze(t testing.TB, nw *Network) int {
	t.Helper()
	w, replayed := new(worker), 0
	for _, id := range nw.order {
		n := nw.node(id)
		if !n.dirty {
			continue
		}
		clone := n.clone()
		nw.deliver(clone)
		nw.purge(clone, w)
		nw.runRules(clone, w)
		checkFreeze(t, n.lastFlow, w.out, w)
		replayed++
	}
	return replayed
}

// CheckStandingFlow holds every standing bucket to the contribution
// invariant: a bucket from a sender that runs here (a partition's hosted
// peer; every peer otherwise) points at that sender's own lastFlow
// contribution for the recipient, the very block, and only a bucket from
// a sender that runs elsewhere may hold a private one. Buckets from
// departed incarnations fail it too. A peer that runs elsewhere (a
// partition's stub) holds no bucket and is never dirty. And no block the
// workers' pools hold for reuse is live: none is a bucket's, a
// lastFlow's or a pending async delivery's, and none is pinned.
func CheckStandingFlow(t testing.TB, s Scheduler, when string) {
	t.Helper()
	nw := s.Network()
	pooled := map[*contrib]bool{}
	for _, w := range nw.workers {
		for n, cs := range w.free {
			for _, c := range cs {
				if c.count() != n || c.nf&pinned != 0 {
					t.Fatalf("%s: a pooled block of %d records has count word %#x", when, n, c.nf)
				}
				pooled[c] = true
			}
		}
	}
	if a, ok := s.(*AsyncRunner); ok {
		for _, ev := range a.events {
			if ev.msgs != nil && (pooled[ev.msgs] || ev.msgs.nf&pinned == 0) {
				t.Fatalf("%s: a pending delivery to %s holds an unpinned or pooled block", when, ev.peer)
			}
		}
	}
	for _, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		if !nw.runsHere(n.id) && (len(n.in) > 0 || n.dirty) {
			t.Fatalf("%s: %s runs elsewhere but holds %d buckets (dirty %v)", when, n.id, len(n.in), n.dirty)
		}
		for _, c := range n.lastFlow {
			if pooled[c] {
				t.Fatalf("%s: %s's lastFlow contribution to %s is pooled for reuse", when, n.id, c.owner())
			}
		}
		for _, b := range n.in {
			if pooled[b.c] {
				t.Fatalf("%s: %s's bucket holds a block pooled for reuse", when, n.id)
			}
			from := nw.pt.nodes[uint32(b.sender>>32)]
			switch {
			case from == nil || from.h() != b.sender:
				t.Fatalf("%s: %s holds a bucket from a departed sender incarnation", when, n.id)
			case b.private && nw.runsHere(from.id):
				t.Fatalf("%s: %s holds a private bucket from %s, which runs here", when, n.id, from.id)
			case !b.private && b.c != findContrib(from.lastFlow, n.id):
				t.Fatalf("%s: %s's bucket from %s is not the sender's lastFlow contribution", when, n.id, from.id)
			case b.c.owner() != n.id:
				t.Fatalf("%s: %s's bucket from %s is addressed to %s", when, n.id, from.id, b.c.owner())
			}
		}
	}
}

// bucketKey names one standing bucket: its recipient and its sender.
type bucketKey struct {
	to   ident.ID
	from handle
}

// BucketWatch is every standing bucket of a network and the commit's op
// count at one instant, for Check.
type BucketWatch struct {
	nw      *Network
	ops     uint64
	buckets map[bucketKey]*contrib
}

// WatchBuckets takes a BucketWatch of nw.
func WatchBuckets(nw *Network) *BucketWatch {
	bw := &BucketWatch{nw: nw, ops: nw.met.BucketOps.Value(), buckets: map[bucketKey]*contrib{}}
	for _, n := range nw.pt.nodes {
		if n != nil {
			for _, b := range n.in {
				bw.buckets[bucketKey{n.id, b.sender}] = b.c
			}
		}
	}
	return bw
}

// Check holds the bucket ops committed since the watch was taken to the
// buckets that changed: one op per bucket installed, deleted or
// rewritten, and every rewrite changes the bucket's messages — so no op
// repointed a bucket at equal content or rewrote it to the block that
// stood. Valid across one batch, which writes each bucket at most once.
func (bw *BucketWatch) Check(t testing.TB, when string) {
	t.Helper()
	now := WatchBuckets(bw.nw)
	changed := 0
	for k, c := range now.buckets {
		old, ok := bw.buckets[k]
		switch {
		case !ok:
			changed++
		case old != c:
			if slices.Equal(old.recs(), c.recs()) {
				t.Fatalf("%s: the bucket from %x at %s was repointed at equal messages", when, k.from, k.to)
			}
			changed++
		}
	}
	for k := range bw.buckets {
		if _, ok := now.buckets[k]; !ok {
			changed++
		}
	}
	if ops := now.ops - bw.ops; ops != uint64(changed) {
		t.Fatalf("%s: the commit applied %d bucket ops, %d buckets changed", when, ops, changed)
	}
}

// CheckDepIndex rebuilds the expected dependency counts from the peers'
// actual state (edge sets plus standing buckets) and compares them with
// the live index, both directions. The index is kept only by diffs, so
// a missed delta anywhere shows up here.
func CheckDepIndex(t testing.TB, nw *Network, when string) {
	t.Helper()
	want := map[ident.ID]map[uint32]uint32{}
	bump := func(id ident.ID, slot uint32) {
		m := want[id]
		if m == nil {
			m = map[uint32]uint32{}
			want[id] = m
		}
		m[slot]++
	}
	for slot, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		for _, v := range n.vnodes {
			if v == nil {
				continue
			}
			for _, s := range v.sets() {
				for _, r := range s.Slice() {
					bump(r.Owner(), uint32(slot))
				}
			}
		}
		for _, b := range n.in {
			for _, r := range b.c.recs() {
				bump(r.addID(), uint32(slot))
			}
		}
	}
	for id, m := range want {
		got := nw.deps.dependents(id)
		if len(got) != len(m) {
			t.Fatalf("%s: index for %s has %d dependents, want %d", when, id, len(got), len(m))
		}
		for _, e := range got {
			if m[e.peer] != e.cnt {
				t.Fatalf("%s: index for %s slot %d count %d, want %d", when, id, e.peer, e.cnt, m[e.peer])
			}
		}
	}
	for id, key := range nw.deps.keyOf {
		if want[id] == nil {
			t.Fatalf("%s: index holds %s (%d dependents) not present in the state", when, id, len(nw.deps.deps[key]))
		}
	}
}

// CheckPurgeMarks holds every peer whose purge mark is current to what
// the mark promises: no reference in its edge sets or carried by its
// standing buckets is stale, so the purge its next deliver skips would
// find nothing. A departure or shorter level span the shrink count
// missed shows up here.
func CheckPurgeMarks(t testing.TB, nw *Network, when string) {
	t.Helper()
	for _, n := range nw.pt.nodes {
		if n == nil || n.purged != nw.shrinks+1 {
			continue
		}
		for _, v := range n.vnodes {
			if v == nil {
				continue
			}
			for _, s := range v.sets() {
				if i := slices.IndexFunc(s.Slice(), nw.stale); i >= 0 {
					t.Fatalf("%s: %s is marked purged but holds the stale %s", when, n.id, s.Slice()[i])
				}
			}
		}
		for _, b := range n.in {
			for _, rec := range b.c.recs() {
				if r := rec.Add(); nw.stale(r) {
					t.Fatalf("%s: %s is marked purged but a bucket carries the stale %s", when, n.id, r)
				}
			}
		}
	}
}

// RemoveNu deletes r from the peer's level-`level` unmarked set out of
// band, the way a fault damages a peer. A direct write becomes part of
// the next run's pre-round state — no epoch bump, no index delta — so
// the helper takes the reference out of the dependency index itself.
// The caller still has to Wake the peer.
func (nw *Network) RemoveNu(id ident.ID, level int, r ref.Ref) {
	n := nw.node(id)
	if n.VNode(level).Nu.Remove(r) {
		nw.deps.remove(r.Owner(), n.idx, 1)
	}
}

// Lockstep drives any number of product networks (say Workers 1 and 4)
// and the reference through the same rounds and membership events.
type Lockstep struct {
	Nets []*Network
	Ref  *Reference

	bumped []int // per net, the last round during which its epoch clock moved
}

// NewLockstep pairs networks built from the same initial state, none of
// which has stepped yet, with a reference copied from the first.
func NewLockstep(nets ...*Network) *Lockstep {
	return &Lockstep{Nets: nets, Ref: NewReference(nets[0]), bumped: make([]int, len(nets))}
}

type membership interface {
	Join(id, contact ident.ID) error
	Leave(id ident.ID) error
	Fail(id ident.ID) error
}

// each applies one membership event everywhere. An event every engine
// rejects is a no-op; engines that disagree on whether it is valid have
// diverged.
func (l *Lockstep) each(op func(membership) error) error {
	refErr := op(l.Ref)
	for i, nw := range l.Nets {
		if err := op(nw); (err == nil) != (refErr == nil) {
			return fmt.Errorf("net %d: event result %v, reference: %v", i, err, refErr)
		}
	}
	return nil
}

func (l *Lockstep) Join(id, contact ident.ID) error {
	return l.each(func(m membership) error { return m.Join(id, contact) })
}
func (l *Lockstep) Leave(id ident.ID) error {
	return l.each(func(m membership) error { return m.Leave(id) })
}
func (l *Lockstep) Fail(id ident.ID) error {
	return l.each(func(m membership) error { return m.Fail(id) })
}

// Step runs one round everywhere and returns the first difference from
// the reference: the global state (edge sets, rl/rr, the sorted pending
// multiset), the pending count, the rounds-to-stable a quiescent network
// reports, or a peer whose state the round changed but whose change
// epoch it did not advance (the settle verdict said "unchanged"). A
// clean peer that should have run is a difference in the next round's
// state, since the reference runs everybody.
//
// LastChange may exceed the reference's by one only when the product's
// epoch clock did not move during round LastChange: no peer's state
// changed in it, only standing outputs were swapped (two senders traded
// a message for the same recipient, whose buckets changed while its
// pending multiset did not). Epochs advance exactly on state change, so
// the check is exact. TestLockstepRoundCountsAgree pins exact agreement
// on its seeds.
func (l *Lockstep) Step() error {
	l.Ref.Step()
	want := l.Ref.Snapshot()
	for i, nw := range l.Nets {
		clock := nw.EpochClock()
		nw.Step()
		if nw.EpochClock() != clock {
			l.bumped[i] = nw.round
		}
		last, refLast := nw.LastChange(), l.Ref.LastChange()
		var what string
		switch {
		case !nw.TakeSnapshot().Equal(want):
			what = "global state"
		case nw.InFlight() != l.Ref.InFlight():
			what = fmt.Sprintf("in-flight count %d vs %d", nw.InFlight(), l.Ref.InFlight())
		case nw.Quiescent() && last != refLast && (last != refLast+1 || l.bumped[i] == last):
			what = fmt.Sprintf("rounds-to-stable %d vs %d (last epoch bump in round %d)", last, refLast, l.bumped[i])
		}
		for _, id := range nw.order {
			if what != "" {
				break
			}
			if l.Ref.Moved(id) && nw.node(id).epoch <= clock {
				what = fmt.Sprintf("the state of peer %s changed but its epoch did not advance", id)
			}
		}
		if what != "" {
			return fmt.Errorf("net %d (workers=%d) differs from the reference after round %d (frontier=%d): %s",
				i, nw.cfg.Workers, nw.round, nw.FrontierSize(), what)
		}
	}
	return nil
}

// Exports compares the graph exports of every network with the
// reference's.
func (l *Lockstep) Exports() error {
	g, rg := l.Ref.Graph(), l.Ref.ReChordGraph()
	for i, nw := range l.Nets {
		if !nw.Graph().Equal(g) || !nw.ReChordGraph().Equal(rg) {
			return fmt.Errorf("net %d (workers=%d): Graph() or ReChordGraph() differs from the reference after round %d", i, nw.cfg.Workers, nw.round)
		}
	}
	return nil
}

// Goodbyes lists, in order, the introductions a graceful leave of id
// would send now.
func (nw *Network) Goodbyes(id ident.ID) []Message {
	var out []Message
	nw.goodbyes(nw.pt.node(id), func(m Message) { out = append(out, m) })
	return out
}

// Recipients lists the present peers id's standing flow (its lastFlow)
// addresses, in identifier order.
func (nw *Network) Recipients(id ident.ID) []ident.ID {
	var out []ident.ID
	for _, c := range nw.pt.node(id).lastFlow {
		if nw.pt.node(c.owner()) != nil {
			out = append(out, c.owner())
		}
	}
	return out
}

// Standing returns the standing buckets at id by sender identifier, each
// as its messages in emission order.
func (nw *Network) Standing(id ident.ID) map[ident.ID][]Message {
	out := map[ident.ID][]Message{}
	for _, b := range nw.pt.node(id).in {
		out[nw.pt.ids[uint32(b.sender>>32)]] = b.c.appendMsgs(nil)
	}
	return out
}
