package rechord

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ident"
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
// off the frontier passes LocallyStable, where the scheduler's model
// defines that:
//   - A partition replays only the peers it hosts (its stubs replicate
//     published state, not edge sets).
//   - The asynchronous scheduler is checked at quiescence only, and for
//     the state half of the predicate only. A handoff revokes the
//     sender's standing bucket at once and arrives later as one-shots,
//     and the bucket comes back silently when the sender next repeats
//     itself, so while anything is in flight or scheduled a clean peer
//     may hold input it has not been replayed against, and at quiescence
//     a returned bucket may make a replay emit what the peer's last run,
//     made while the bucket was revoked, did not.
func AssertCleanPeersStable(t testing.TB, s Scheduler) {
	t.Helper()
	nw := s.Network()
	stable := nw.locallyStable
	switch s := s.(type) {
	case *Partition:
		stable = func(id ident.ID, w *worker) bool { return !s.hosted(id) || nw.locallyStable(id, w) }
	case *AsyncRunner:
		if !s.Quiescent() {
			return
		}
		stable = func(id ident.ID, w *worker) bool {
			clone := nw.node(id).clone()
			nw.deliver(clone)
			nw.purge(clone, w)
			nw.runRules(clone, w)
			return nw.node(id).vnodesEqual(clone.vnodes)
		}
	}
	if err := cleanPeersStable(nw, stable); err != nil {
		t.Fatalf("time %d: %v", s.Time(), err)
	}
}

// Lockstep drives any number of product networks (say Workers 1 and 4)
// and the reference through the same rounds and membership events.
type Lockstep struct {
	Nets []*Network
	Ref  *Reference
}

// NewLockstep pairs networks built from the same initial state, none of
// which has stepped yet, with a reference copied from the first.
func NewLockstep(nets ...*Network) *Lockstep {
	return &Lockstep{Nets: nets, Ref: NewReference(nets[0])}
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
// LastChange may exceed the reference's by one: the product counts a
// round in which two senders swapped a message for the same recipient
// (its buckets changed, its pending multiset did not) as a change.
// TestLockstepRoundCountsAgree pins exact agreement on its seeds.
func (l *Lockstep) Step() error {
	l.Ref.Step()
	want := l.Ref.Snapshot()
	for i, nw := range l.Nets {
		clock := nw.EpochClock()
		nw.Step()
		var what string
		switch {
		case !nw.TakeSnapshot().Equal(want):
			what = "global state"
		case nw.InFlight() != l.Ref.InFlight():
			what = fmt.Sprintf("in-flight count %d vs %d", nw.InFlight(), l.Ref.InFlight())
		case nw.Quiescent() && (nw.LastChange() < l.Ref.LastChange() || nw.LastChange() > l.Ref.LastChange()+1):
			what = fmt.Sprintf("rounds-to-stable %d vs %d", nw.LastChange(), l.Ref.LastChange())
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
