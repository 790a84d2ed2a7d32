package rechord

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

func TestMessageString(t *testing.T) {
	m := Message{
		To:   ref.Real(ident.FromFloat(0.5)),
		Kind: graph.Ring,
		Add:  ref.Virtual(ident.FromFloat(0.25), 2),
	}
	s := m.String()
	for _, want := range []string{"R(0.5", "ring", "V(0.25"} {
		if !strings.Contains(s, want) {
			t.Errorf("Message.String() = %q missing %q", s, want)
		}
	}
}

func TestSortedMessagesCanonical(t *testing.T) {
	a := Message{To: ref.Real(1), Kind: graph.Unmarked, Add: ref.Real(2)}
	b := Message{To: ref.Real(1), Kind: graph.Ring, Add: ref.Real(2)}
	c := Message{To: ref.Real(3), Kind: graph.Unmarked, Add: ref.Real(2)}
	d := Message{To: ref.Real(1), Kind: graph.Unmarked, Add: ref.Real(9)}
	x := sortedMessages([]Message{c, d, b, a})
	y := sortedMessages([]Message{a, b, c, d})
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("sortedMessages not canonical: %v vs %v", x, y)
		}
	}
	if x[0] != a {
		t.Errorf("first sorted message = %v, want %v", x[0], a)
	}
}

func TestSnapshotEqualDetectsInboxDifference(t *testing.T) {
	build := func() *Network {
		nw := NewNetwork(Config{})
		nw.AddPeer(ident.FromFloat(0.5))
		return nw
	}
	nw1, nw2 := build(), build()
	if !nw1.TakeSnapshot().Equal(nw2.TakeSnapshot()) {
		t.Fatal("identical fresh networks not Equal")
	}
	nw2.Peer(ident.FromFloat(0.5)).inbox = append(nw2.Peer(ident.FromFloat(0.5)).inbox,
		Message{To: ref.Real(ident.FromFloat(0.5)), Kind: graph.Unmarked, Add: ref.Real(ident.FromFloat(0.9))})
	if nw1.TakeSnapshot().Equal(nw2.TakeSnapshot()) {
		t.Fatal("differing inboxes compared Equal (the round-16 bug)")
	}
}

func TestSnapshotEqualOrderInsensitiveInbox(t *testing.T) {
	msg1 := Message{To: ref.Real(1), Kind: graph.Unmarked, Add: ref.Real(2)}
	msg2 := Message{To: ref.Real(1), Kind: graph.Ring, Add: ref.Real(3)}
	build := func(ms ...Message) *Network {
		nw := NewNetwork(Config{})
		nw.AddPeer(ident.ID(1))
		nw.Peer(ident.ID(1)).inbox = append(nw.Peer(ident.ID(1)).inbox, ms...)
		return nw
	}
	a := build(msg1, msg2)
	b := build(msg2, msg1)
	if !a.TakeSnapshot().Equal(b.TakeSnapshot()) {
		t.Error("inbox order must not affect state equality (delivery is set-union)")
	}
}

func TestVNodeAddGuardsSelfLoop(t *testing.T) {
	v := newVNode(ident.FromFloat(0.5), 2)
	v.addNu(v.Self)
	var w worker
	n := &RealNode{id: v.Self.Owner(), vnodes: []*VNode{nil, nil, v}}
	for _, k := range graph.Kinds() {
		w.land(n, 2, k, v.Self)
	}
	if !v.Nu.Empty() || !v.Nr.Empty() || !w.ncAt(2).Empty() {
		t.Error("self-loop slipped into an edge set")
	}
	other := ref.Real(ident.FromFloat(0.7))
	v.addNu(other)
	if !v.Nu.Contains(other) {
		t.Error("legitimate edge rejected")
	}
}

func TestVNodeCloneIndependent(t *testing.T) {
	v := newVNode(ident.FromFloat(0.5), 1)
	v.addNu(ref.Real(ident.FromFloat(0.7)))
	v.HasRL = true
	v.RL = ref.Real(ident.FromFloat(0.3))
	c := v.clone()
	c.addNu(ref.Real(ident.FromFloat(0.9)))
	if v.Nu.Len() != 1 {
		t.Error("clone shares Nu storage")
	}
	if !v.equal(v.clone()) {
		t.Error("vnode not equal to its own clone")
	}
	if v.equal(c) {
		t.Error("differing vnodes compare equal")
	}
}

func TestRealNodeAccessors(t *testing.T) {
	n := &RealNode{id: ident.FromFloat(0.5), vnodes: []*VNode{
		newVNode(ident.FromFloat(0.5), 0),
		newVNode(ident.FromFloat(0.5), 1),
		newVNode(ident.FromFloat(0.5), 2),
	}}
	if n.ID() != ident.FromFloat(0.5) {
		t.Error("ID accessor wrong")
	}
	if got := n.Levels(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("Levels = %v", got)
	}
	if n.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d, want 2", n.MaxLevel())
	}
	sibs := n.siblings()
	if len(sibs) != 3 {
		t.Fatalf("siblings = %v", sibs)
	}
	for i := 1; i < len(sibs); i++ {
		if !sibs[i-1].Less(sibs[i]) {
			t.Error("siblings not sorted")
		}
	}
}

func TestKnownRealsExcludesSelfAndVirtuals(t *testing.T) {
	u := ident.FromFloat(0.5)
	n := &RealNode{id: u, vnodes: []*VNode{newVNode(u, 0)}}
	v := n.vnodes[0]
	v.addNu(ref.Real(ident.FromFloat(0.7)))       // real: counted
	v.addNu(ref.Virtual(ident.FromFloat(0.3), 1)) // virtual: not an edge to a real node
	v.Nr.Add(ref.Real(ident.FromFloat(0.2)))      // ring edges count too
	var w worker
	w.ncAt(0).Add(ref.Real(ident.FromFloat(0.9))) // and N_c's
	w.knownReals(n)
	reals := w.realID
	if len(reals) != 3 {
		t.Fatalf("knownReals = %v, want three entries", reals)
	}
	for _, r := range reals {
		if r == u {
			t.Error("knownReals contains self")
		}
	}
}
