package rechord

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// fx is a small white-box fixture for exercising single rules.
type fx struct {
	nw *Network
}

func newFx(cfg Config, peers ...float64) *fx {
	nw := NewNetwork(cfg)
	for _, p := range peers {
		nw.AddPeer(ident.FromFloat(p))
	}
	return &fx{nw: nw}
}

// rebuildView recomputes the published view, the engine's incrementally
// maintained cache, from scratch: the fixture mutates peer state directly
// between runs, behind the back of the barrier that normally maintains it.
func (nw *Network) rebuildView() {
	for slot, n := range nw.pt.nodes {
		if n == nil {
			nw.view[slot] = nil
			continue
		}
		vs := nw.view[slot][:0]
		for _, v := range n.vnodes {
			e := PublishedView{}
			if v != nil {
				e = publish(v)
			}
			vs = append(vs, e)
		}
		nw.view[slot] = vs
	}
}

func (f *fx) peer(x float64) *RealNode { return f.nw.Peer(ident.FromFloat(x)) }

// nodeResult is what one fixture run of rules 1-6 produced.
type nodeResult struct {
	out          []Message
	made, killed int
}

func (f *fx) run(x float64) nodeResult {
	// The fixture mutates peer state directly between runs, so the
	// incrementally maintained view the rules read is rebuilt wholesale.
	f.nw.rebuildView()
	var w worker
	f.nw.runRules(f.peer(x), &w)
	return nodeResult{out: w.out, made: w.made, killed: w.killed}
}

func TestRule1CreatesVirtualNodes(t *testing.T) {
	f := newFx(Config{}, 0.1, 0.35)
	// 0.1 knows the real node 0.35 at clockwise distance 0.25: m = 3.
	f.nw.SeedEdge(ref.Real(ident.FromFloat(0.1)), ref.Real(ident.FromFloat(0.35)), graph.Unmarked)
	res := f.run(0.1)
	if res.made != 3 {
		t.Errorf("made %d virtual nodes, want 3", res.made)
	}
	n := f.peer(0.1)
	if got := n.MaxLevel(); got != 3 {
		t.Errorf("m = %d, want 3", got)
	}
	for _, l := range []int{0, 1, 2, 3} {
		if n.VNode(l) == nil {
			t.Errorf("virtual node level %d missing", l)
		}
	}
}

func TestRule1NoKnownRealsCapsAtMaxLevel(t *testing.T) {
	f := newFx(Config{}, 0.5)
	res := f.run(0.5)
	if res.made != ident.MaxLevel {
		t.Errorf("made %d, want MaxLevel=%d", res.made, ident.MaxLevel)
	}
}

func TestRule1DeletesAndMergesNeighborhoods(t *testing.T) {
	f := newFx(Config{}, 0.1, 0.35)
	u := ident.FromFloat(0.1)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.35)), graph.Unmarked)
	// Garbage state: a stale virtual node at level 9 (beyond m=3) with
	// edges of all three kinds.
	w := ident.FromFloat(0.35)
	f.nw.SeedEdge(ref.Virtual(u, 9), ref.Virtual(w, 1), graph.Unmarked)
	f.nw.SeedEdge(ref.Virtual(u, 9), ref.Virtual(w, 2), graph.Ring)
	f.nw.SeedEdge(ref.Virtual(u, 9), ref.Virtual(w, 3), graph.Connection)
	// The targets must exist for the purge to keep them.
	f.nw.SeedEdge(ref.Real(w), ref.Real(u), graph.Unmarked)
	fw := f.nw.Peer(w)
	for _, l := range []int{1, 2, 3} {
		fw.ensureLevel(l)
	}

	res := f.run(0.1)
	if res.killed != 1 {
		t.Errorf("killed %d, want 1", res.killed)
	}
	n := f.peer(0.1)
	if n.VNode(9) != nil {
		t.Error("stale level 9 not deleted")
	}
	// The inherited references must not be lost: after the merge the
	// later rules redistribute them, so each must appear either in some
	// sibling's neighborhood or in an outgoing message.
	for _, tgt := range []ref.Ref{ref.Virtual(w, 1), ref.Virtual(w, 2), ref.Virtual(w, 3)} {
		found := false
		for _, l := range n.Levels() {
			if n.VNode(l).Nu.Contains(tgt) {
				found = true
			}
		}
		for _, m := range res.out {
			if m.Add == tgt || m.To == tgt {
				found = true
			}
		}
		if !found {
			t.Errorf("reference %s lost during merge", tgt)
		}
	}
}

func TestRule2MovesEdgeToCloserSibling(t *testing.T) {
	f := newFx(Config{}, 0.1, 0.12, 0.5)
	u := ident.FromFloat(0.1)
	// Closest real at 0.12 -> distance 0.02 -> m = 6 -> siblings at
	// 0.6, 0.35, 0.225, 0.1625, 0.13125, 0.115625.
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.12)), graph.Unmarked)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.5)), graph.Unmarked)
	f.run(0.1)
	n := f.peer(0.1)
	if n.VNode(0).Nu.Contains(ref.Real(ident.FromFloat(0.5))) {
		t.Errorf("edge to 0.5 stayed at u_0: %s", n.VNode(0).Nu.String())
	}
	// The sibling closest to 0.5 strictly between u_0=0.1 and w=0.5 is
	// u_2 at 0.35 (u_1=0.6 is beyond w).
	if v := n.VNode(2); !v.Nu.Contains(ref.Real(ident.FromFloat(0.5))) {
		t.Errorf("edge to 0.5 not at u_2 (0.35): %s", v.Nu.String())
	}
}

func TestRule3SetsClosestReals(t *testing.T) {
	f := newFx(Config{}, 0.3, 0.2, 0.4)
	u := ident.FromFloat(0.3)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.2)), graph.Unmarked)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.4)), graph.Unmarked)
	f.run(0.3)
	v := f.peer(0.3).VNode(0)
	if !v.HasRL || v.RL != ref.Real(ident.FromFloat(0.2)) {
		t.Errorf("rl = %v (%v), want 0.2", v.RL, v.HasRL)
	}
	if !v.HasRR || v.RR != ref.Real(ident.FromFloat(0.4)) {
		t.Errorf("rr = %v (%v), want 0.4", v.RR, v.HasRR)
	}
	if !v.Nu.Contains(v.RL) || !v.Nu.Contains(v.RR) {
		t.Errorf("rl/rr not kept in Nu: %s", v.Nu.String())
	}
}

func TestRule3InformsNeighbors(t *testing.T) {
	// u_0 = 0.3 knows real 0.2 (left real) and node y = 0.25 between
	// them; y must be told about 0.2.
	f := newFx(Config{}, 0.3, 0.2, 0.25)
	u := ident.FromFloat(0.3)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.2)), graph.Unmarked)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.25)), graph.Unmarked)
	res := f.run(0.3)
	found := false
	for _, m := range res.out {
		if m.To == ref.Real(ident.FromFloat(0.25)) && m.Kind == graph.Unmarked && m.Add == ref.Real(ident.FromFloat(0.2)) {
			found = true
		}
	}
	if !found {
		t.Errorf("no rl propagation message to y; out = %v", res.out)
	}
}

func TestRule3GuardSuppressesRedundantInfo(t *testing.T) {
	// Peer 0.3 knows reals 0.2, 0.6 and 0.85. Rule 2 hands the edge to
	// 0.85 to the sibling u_1 = 0.8, whose closest left real is 0.6;
	// rule 3 then informs 0.85 about 0.6 — unless 0.85 already
	// publishes a closer left real. The payload R(0.6) is produced by
	// no other rule, so the message identifies rule 3's propagation.
	build := func(publish bool) []Message {
		f := newFx(Config{}, 0.3, 0.2, 0.6, 0.85)
		u := ident.FromFloat(0.3)
		for _, x := range []float64{0.2, 0.6, 0.85} {
			f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(x)), graph.Unmarked)
		}
		if publish {
			yn := f.nw.Peer(ident.FromFloat(0.85)).VNode(0)
			yn.HasRL = true
			yn.RL = ref.Real(ident.FromFloat(0.7))
		}
		return f.run(0.3).out
	}
	isRLInfo := func(m Message) bool {
		return m.Kind == graph.Unmarked && m.To == ref.Real(ident.FromFloat(0.85)) &&
			m.Add == ref.Real(ident.FromFloat(0.6))
	}
	for _, m := range build(true) {
		if isRLInfo(m) {
			t.Errorf("redundant rl message sent despite better published rl: %v", m)
		}
	}
	found := false
	for _, m := range build(false) {
		if isRLInfo(m) {
			found = true
		}
	}
	if !found {
		t.Error("control: no rl info sent to neighbor without published rl")
	}
}

func TestRule4LinearizationKeepsClosest(t *testing.T) {
	f := newFx(Config{}, 0.5, 0.1, 0.3, 0.7, 0.9)
	u := ident.FromFloat(0.5)
	for _, x := range []float64{0.1, 0.3, 0.7, 0.9} {
		f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(x)), graph.Unmarked)
	}
	res := f.run(0.5)
	v := f.peer(0.5).VNode(0)
	// Closest left 0.3 and closest right 0.7 stay (as rl/rr they are
	// re-added too); 0.1 and 0.9 must be forwarded away.
	if v.Nu.Contains(ref.Real(ident.FromFloat(0.1))) || v.Nu.Contains(ref.Real(ident.FromFloat(0.9))) {
		t.Errorf("far neighbors kept: %s", v.Nu.String())
	}
	if !v.Nu.Contains(ref.Real(ident.FromFloat(0.3))) || !v.Nu.Contains(ref.Real(ident.FromFloat(0.7))) {
		t.Errorf("closest neighbors lost: %s", v.Nu.String())
	}
	// Forwarding: 0.3 must learn about 0.1 (descending chain), 0.7
	// about 0.9 (ascending chain).
	var fwd01, fwd09 bool
	for _, m := range res.out {
		if m.To == ref.Real(ident.FromFloat(0.3)) && m.Add == ref.Real(ident.FromFloat(0.1)) {
			fwd01 = true
		}
		if m.To == ref.Real(ident.FromFloat(0.7)) && m.Add == ref.Real(ident.FromFloat(0.9)) {
			fwd09 = true
		}
	}
	if !fwd01 || !fwd09 {
		t.Errorf("linearization forwarding missing (0.1->0.3: %v, 0.9->0.7: %v); out=%v", fwd01, fwd09, res.out)
	}
}

func TestRule4Mirroring(t *testing.T) {
	f := newFx(Config{}, 0.5, 0.3, 0.7)
	u := ident.FromFloat(0.5)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.3)), graph.Unmarked)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.7)), graph.Unmarked)
	res := f.run(0.5)
	var m03, m07 bool
	for _, m := range res.out {
		if m.Kind == graph.Unmarked && m.Add == ref.Real(u) {
			if m.To == ref.Real(ident.FromFloat(0.3)) {
				m03 = true
			}
			if m.To == ref.Real(ident.FromFloat(0.7)) {
				m07 = true
			}
		}
	}
	if !m03 || !m07 {
		t.Errorf("mirroring did not announce u to closest neighbors: %v", res.out)
	}
}

func TestRule5CreatesRingEdges(t *testing.T) {
	// A node with no left neighbor asks the largest known node to hold
	// a ring edge to it.
	f := newFx(Config{}, 0.1, 0.6)
	u := ident.FromFloat(0.1)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.6)), graph.Unmarked)
	res := f.run(0.1)
	found := false
	for _, m := range res.out {
		if m.Kind == graph.Ring && m.Add == ref.Real(u) {
			found = true
			// The holder must be the largest known node.
			if m.To.ID() <= u {
				t.Errorf("ring edge holder %s not larger than u", m.To)
			}
		}
	}
	if !found {
		t.Error("no ring edge created for node missing a left neighbor")
	}
}

func TestRule5ForwardDissolvesWhenBeyondKnown(t *testing.T) {
	// Holder u=0.5 has ring edge to w=0.8 (w thinks it is the max),
	// but u knows x=0.9 > w: the ring edge dissolves into an unmarked
	// edge (x, w).
	f := newFx(Config{}, 0.5, 0.8, 0.9)
	u := ident.FromFloat(0.5)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.8)), graph.Ring)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.9)), graph.Unmarked)
	res := f.run(0.5)
	var dissolved bool
	for _, m := range res.out {
		if m.Kind == graph.Unmarked && m.To == ref.Real(ident.FromFloat(0.9)) && m.Add == ref.Real(ident.FromFloat(0.8)) {
			dissolved = true
		}
	}
	if !dissolved {
		t.Errorf("ring edge not dissolved via known larger node: %v", res.out)
	}
	if f.peer(0.5).VNode(0).Nr.Contains(ref.Real(ident.FromFloat(0.8))) {
		t.Error("dissolved ring edge still held")
	}
}

func TestRule5ForwardTowardMin(t *testing.T) {
	// Holder u=0.4 has a ring edge to w=0.95 and knows nothing beyond
	// w (its only sibling is u_1=0.9 < w), so the edge is forwarded to
	// the smallest known node, 0.2.
	f := newFx(Config{}, 0.4, 0.95, 0.2)
	u := ident.FromFloat(0.4)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.95)), graph.Ring)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.2)), graph.Unmarked)
	res := f.run(0.4)
	var forwarded bool
	for _, m := range res.out {
		if m.Kind == graph.Ring && m.To == ref.Real(ident.FromFloat(0.2)) && m.Add == ref.Real(ident.FromFloat(0.95)) {
			forwarded = true
		}
	}
	if !forwarded {
		t.Errorf("ring edge not forwarded toward the minimum: %v", res.out)
	}
}

func TestRule6ConnectsSiblingsAndForwards(t *testing.T) {
	f := newFx(Config{}, 0.1, 0.35)
	u := ident.FromFloat(0.1)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.35)), graph.Unmarked)
	res := f.run(0.1)
	// m=3: siblings sorted 0.1(u0) < 0.225(u3)... levels: u1=0.6,
	// u2=0.35, u3=0.225 -> sorted: 0.1, 0.225, 0.35, 0.6.
	// Consecutive pairs connect; with empty Nu between siblings the
	// forwarding immediately falls to the backward-edge case, sending
	// "add me" to the target sibling (self-messages within the peer).
	var sawBackward bool
	for _, m := range res.out {
		if m.Kind == graph.Unmarked && m.To.Owner() == u && m.Add.Owner() == u {
			sawBackward = true
		}
	}
	if !sawBackward {
		t.Errorf("no backward edges between fresh siblings: %v", res.out)
	}
}

func TestRule6ForwardThroughIntermediate(t *testing.T) {
	// Peer 0.1 with siblings; a node w=0.3 sits between siblings
	// u_2=0.225... actually between 0.225 and 0.35: the connection
	// edge (u_3, u_2') must be forwarded to w when w is the largest
	// known node below the target.
	f := newFx(Config{}, 0.1, 0.35, 0.3)
	u := ident.FromFloat(0.1)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.35)), graph.Unmarked)
	// u_3 (0.225) knows w=0.3 < u_2 (0.35): seed after vnodes exist.
	f.run(0.1) // creates vnodes
	f.nw.SeedEdge(ref.Virtual(u, 3), ref.Real(ident.FromFloat(0.3)), graph.Unmarked)
	res := f.run(0.1)
	var forwarded bool
	for _, m := range res.out {
		if m.Kind == graph.Connection && m.To == ref.Real(ident.FromFloat(0.3)) && m.Add == ref.Virtual(u, 2) {
			forwarded = true
		}
	}
	if !forwarded {
		t.Errorf("connection edge not forwarded through intermediate node: %v", res.out)
	}
}

func TestDisableRingSkipsRule5(t *testing.T) {
	f := newFx(Config{DisableRing: true}, 0.1, 0.6)
	u := ident.FromFloat(0.1)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.6)), graph.Unmarked)
	res := f.run(0.1)
	for _, m := range res.out {
		if m.Kind == graph.Ring {
			t.Fatalf("ring message generated with DisableRing: %v", m)
		}
	}
}

func TestDisableConnectionSkipsRule6(t *testing.T) {
	f := newFx(Config{DisableConnection: true}, 0.1, 0.35)
	u := ident.FromFloat(0.1)
	f.nw.SeedEdge(ref.Real(u), ref.Real(ident.FromFloat(0.35)), graph.Unmarked)
	res := f.run(0.1)
	for _, m := range res.out {
		if m.Kind == graph.Connection {
			t.Fatalf("connection message generated with DisableConnection: %v", m)
		}
	}
	if !f.peer(0.1).VNode(0).Nc.Empty() {
		t.Error("Nc populated with DisableConnection")
	}
}

// TestUnionQueriesMatchMerge compares the in-place answers of the rule
// 5 and 6 guards — N(u)'s extremes, min/max over N(u) ∪ N_r(u_i), and
// max over N_u(u_i) ∪ S(u_i) — with the reference's literal form: the
// merged set and a linear scan. The random peers' sets mix their own
// siblings with foreign references, and real nodes placed exactly on a
// virtual node's position, so equal identifiers are common.
func TestUnionQueriesMatchMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var lit literal
	for range 200 {
		u := ident.ID(rng.Uint64())
		levels := 1 + rng.Intn(4)
		var pool []ref.Ref
		for _, b := range []ident.ID{u, ident.ID(rng.Uint64()), ident.ID(rng.Uint64())} {
			for l := 0; l <= levels; l++ {
				pool = append(pool, ref.Virtual(b, l))
				if l > 0 {
					pool = append(pool, ref.Real(ident.Sibling(b, l)))
				}
			}
		}
		n := &RealNode{id: u}
		for l := 0; l <= levels; l++ {
			v := n.ensureLevel(l)
			for _, r := range pool {
				switch rng.Intn(4) {
				case 0:
					v.addNu(r)
				case 1:
					v.addNr(r)
				}
			}
		}
		w := &worker{}
		w.sibs = n.siblingsInto(nil)
		c := ruleContext{n: n, w: w}
		lit.knownSet(n, w.sibs)
		if lo, hi := c.knownBounds(); lo != lit.known[0] || hi != lit.known[len(lit.known)-1] {
			t.Fatalf("knownBounds = %v,%v, want %v,%v", lo, hi, lit.known[0], lit.known[len(lit.known)-1])
		}
		for _, ui := range n.vnodes {
			cand := mergeSorted(nil, lit.known, ui.Nr.Slice())
			six := mergeSorted(nil, ui.Nu.Slice(), w.sibs)
			for _, r := range pool {
				for _, id := range []ident.ID{r.ID() - 1, r.ID(), r.ID() + 1} {
					x, ok := c.knownAbove(ui.Nr, id)
					if y, yok := scanMinAbove(cand, id); x != y || ok != yok {
						t.Fatalf("knownAbove(%v) = %v,%v, want %v,%v", id, x, ok, y, yok)
					}
					x, ok = c.knownBelow(ui.Nr, id)
					if y, yok := scanMaxBelow(cand, id); x != y || ok != yok {
						t.Fatalf("knownBelow(%v) = %v,%v, want %v,%v", id, x, ok, y, yok)
					}
					x, ok = ui.Nu.MaxBelow(id)
					x, ok = below(x, ok, w.sibs, id)
					if y, yok := scanMaxBelow(six, id); x != y || ok != yok {
						t.Fatalf("rule 6 max below %v = %v,%v, want %v,%v", id, x, ok, y, yok)
					}
				}
			}
		}
	}
}
