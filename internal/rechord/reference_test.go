package rechord

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Reference is the paper's execution model, literally (Section 2.1), and
// the oracle every optimisation of the product engine is compared with
// after every round (Lockstep, export_test.go). In each synchronous
// round EVERY member, in identifier order, receives the delayed
// assignments issued to it in the previous round, drops its references
// to departed peers and deleted virtual nodes, and runs rules 1-6
// against the level and rl/rr variables its neighbours published at the
// end of the previous round; then every emitted message is copied into
// its recipient's inbox and every member republishes. The fixed point is
// found the naive way: clone the global state, run a round, compare.
//
// What it shares with the product: the value types (RealNode as a bag of
// virtual nodes plus a plain []Message inbox, VNode, Message, ref.Set),
// the bodies of rules 1 and 4 in rules.go, and the deliver and purge
// helpers — reached the way LocallyStable reaches them, by replaying a
// peer with a private worker value as scratch. Those bodies read two
// things through a *Network: the identifier registry with each member's
// published maximum level, and the published rl/rr view. env is a
// Network of which ONLY those two (and the sorted member list) are ever
// populated, by this file.
//
// Rules 2, 3, 5 and 6 are its own (the bodies at the end of this file):
// they materialise N(u) by merging the sibling list with every level's
// N_u, merge again per ring edge and per connection level, and answer
// each guard by a linear scan, as the paper states it. The product answers
// the same guards by binary searches on the sets themselves, so a
// divergence in either is a divergence from this engine.
//
// What it must never share: the choice of which peers run, standing
// per-sender storage and the templates behind it, the pre-round image, the
// inverted index of references, the goroutine set, the product's
// fixed-point test and the product's query kernels of rules 2, 3, 5 and
// 6. A bug in any of those is a divergence from this engine; a bug in
// rule 1 or 4 is not — rules_test.go, ComputeIdeal and the golden file
// are what pin those two.
type Reference struct {
	env        *Network
	sent       map[ident.ID][]Message // each member's output of the last round
	round      int
	lastChange int
	prev, cur  *Snapshot // the global state before and after the last round
	w          worker
	lit        literal
}

// NewReference copies the initial state of nw: membership, virtual
// nodes, pending one-shot messages and published variables — what
// AddPeer, SeedEdge and Leave set up before the first round. nw must not
// have stepped yet (afterwards its pending messages are no plain list).
func NewReference(nw *Network) *Reference {
	if nw.round != 0 {
		panic("rechord: the reference copies initial states only")
	}
	r := &Reference{
		env:  &Network{cfg: Config{DisableRing: nw.cfg.DisableRing, DisableConnection: nw.cfg.DisableConnection}},
		sent: map[ident.ID][]Message{},
	}
	for _, id := range nw.order {
		src := nw.node(id)
		n := r.admit(src.clone())
		r.env.view[n.idx] = slices.Clone(nw.view[src.idx]) // SeedEdge publishes a seeded level at once
	}
	return r
}

// admit registers a member: the registry entry other peers resolve
// references against, its published view one zero entry (level 0).
func (r *Reference) admit(n *RealNode) *RealNode {
	slot := r.env.pt.intern(n)
	for int(slot) >= len(r.env.view) {
		r.env.view = append(r.env.view, nil)
	}
	r.env.view[slot] = []PublishedView{{}}
	r.env.insertOrder(n.id)
	return n
}

// Step runs one synchronous round.
func (r *Reference) Step() {
	r.round++
	r.prev = r.Snapshot()
	r.cur = nil
	for _, id := range r.env.order {
		n := r.env.node(id)
		r.env.deliver(n) // consumes the inbox
		r.env.purge(n, &r.w)
		r.runRules(n)
		r.sent[id] = slices.Clone(r.w.out)
	}
	// Delayed assignments: visible at the recipient from the next round
	// on. Nobody receives what is addressed to a non-member.
	for _, id := range r.env.order {
		for _, m := range r.sent[id] {
			r.post(m)
		}
	}
	// Everybody republishes; all of this round's reads saw the old values.
	for _, id := range r.env.order {
		n := r.env.node(id)
		view := r.env.view[n.idx][:0]
		for _, v := range n.vnodes { // contiguous since rule 1 ran
			var e PublishedView
			if v.HasRL {
				e.HasRL, e.RL = true, v.RL
			}
			if v.HasRR {
				e.HasRR, e.RR = true, v.RR
			}
			view = append(view, e)
		}
		r.env.view[n.idx] = view
	}
	r.cur = r.Snapshot()
	if !r.prev.Equal(r.cur) {
		r.lastChange = r.round
	}
}

// post puts a message into its recipient's inbox, if the recipient is a
// member.
func (r *Reference) post(m Message) {
	if dst := r.env.node(m.To.Owner()); dst != nil {
		dst.inbox = append(dst.inbox, m)
	}
}

// Join admits a peer that knows one member (Section 4.1). Delayed
// assignments are addressed to identifiers, so what the current members
// sent to this one in the last round reaches whoever holds it now.
func (r *Reference) Join(id, contact ident.ID) error {
	if r.env.node(id) != nil || r.env.node(contact) == nil {
		return fmt.Errorf("reference: cannot join %s via %s", id, contact)
	}
	r.cur = nil
	n := r.admit(&RealNode{id: id, vnodes: []*VNode{newVNode(id, 0)}})
	n.vnodes[0].addNu(ref.Real(contact))
	for _, s := range r.env.order {
		for _, m := range r.sent[s] {
			if m.To.Owner() == id {
				n.inbox = append(n.inbox, m)
			}
		}
	}
	return nil
}

// Fail removes a peer without notice. What it sent in its last round is
// already in the recipients' inboxes and still arrives; what was
// addressed to it is gone with it.
func (r *Reference) Fail(id ident.ID) error {
	n := r.env.node(id)
	if n == nil {
		return fmt.Errorf("reference: %s is not a member", id)
	}
	r.cur = nil
	r.env.view[n.idx] = nil
	r.env.pt.release(n)
	r.env.removeOrder(id)
	delete(r.sent, id)
	return nil
}

// Leave is the graceful departure of Section 4.2: every virtual node
// introduces its unmarked neighbours and closest reals to one another
// and hands each ring edge it holds to the first of them, as ordinary
// delayed assignments; then the peer is gone.
func (r *Reference) Leave(id ident.ID) error {
	n := r.env.node(id)
	if n == nil {
		return fmt.Errorf("reference: %s is not a member", id)
	}
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		know := v.Nu.Clone()
		if v.HasRL {
			know.Add(v.RL)
		}
		if v.HasRR {
			know.Add(v.RR)
		}
		know.RemoveIf(func(x ref.Ref) bool { return x.Owner() == id })
		for _, a := range know.Slice() {
			for _, b := range know.Slice() {
				if a != b {
					r.post(Message{To: a, Kind: graph.Unmarked, Add: b})
				}
			}
		}
		for _, held := range v.Nr.Slice() {
			if i := slices.IndexFunc(know.Slice(), func(a ref.Ref) bool { return a != held }); i >= 0 && held.Owner() != id {
				r.post(Message{To: know.Slice()[i], Kind: graph.Ring, Add: held})
			}
		}
	}
	return r.Fail(id)
}

// Snapshot deep-copies the global state: every member's virtual nodes
// and pending messages. The copy taken at the end of a round is kept
// until a membership event changes the state.
func (r *Reference) Snapshot() *Snapshot {
	if r.cur != nil {
		return r.cur
	}
	s := &Snapshot{Round: r.round, nodes: make(map[ident.ID]*RealNode, len(r.env.order))}
	for _, id := range r.env.order {
		s.nodes[id] = snapshotPeer(r.env.node(id))
	}
	return s
}

// Round returns the number of rounds run.
func (r *Reference) Round() int { return r.round }

// LastChange returns the last round that changed the global state: the
// paper's rounds-to-stable once a round has left the state as it was.
func (r *Reference) LastChange() int { return r.lastChange }

// Moved reports whether the last round changed the member's own state,
// its virtual nodes with their edge sets and rl/rr.
func (r *Reference) Moved(id ident.ID) bool {
	return !r.env.node(id).vnodesEqual(r.prev.nodes[id].vnodes)
}

// Peers returns the members in identifier order.
func (r *Reference) Peers() []ident.ID { return slices.Clone(r.env.order) }

// InFlight counts the pending messages.
func (r *Reference) InFlight() int {
	c := 0
	for _, id := range r.env.order {
		c += len(r.env.node(id).inbox)
	}
	return c
}

// Graph and ReChordGraph export the state the way the product's
// exporters do; both read only members, virtual nodes and inboxes.
func (r *Reference) Graph() *graph.Graph        { return r.env.Graph() }
func (r *Reference) ReChordGraph() *graph.Graph { return r.env.ReChordGraph() }

// runRules is Network.runRules with the reference's own bodies of rules
// 2, 3, 5 and 6.
func (r *Reference) runRules(n *RealNode) {
	r.w.out = r.w.out[:0]
	c := ruleContext{nw: r.env, n: n, w: &r.w}
	c.ruleVirtualNodes()
	c.cur = 1
	r.lit.overlappingNeighborhood(&c)
	c.cur = 2
	r.lit.closestRealNeighbor(&c)
	c.cur = 3
	c.ruleLinearization()
	if !r.env.cfg.DisableRing {
		c.cur = 4
		r.lit.ringEdges(&c)
	}
	if !r.env.cfg.DisableConnection {
		c.cur = 5
		r.lit.connectionEdges(&c)
	}
}

// literal holds the reference's rule scratch: N(u), its real nodes, a
// merge buffer and the candidate set of one guard.
type literal struct {
	known, tmp, reals, cand []ref.Ref
}

// knownSet sets l.known to N(u): the siblings merged with every level's
// N_u.
func (l *literal) knownSet(n *RealNode, sibs []ref.Ref) {
	l.known = append(l.known[:0], sibs...)
	for _, v := range n.vnodes {
		if v != nil {
			l.tmp = mergeSorted(l.tmp[:0], l.known, v.Nu.Slice())
			l.known, l.tmp = l.tmp, l.known
		}
	}
}

// mergeSorted appends the deduplicated union of two Less-sorted slices
// to dst, which must not alias either.
func mergeSorted(dst, a, b []ref.Ref) []ref.Ref {
	for len(a) > 0 || len(b) > 0 {
		var x ref.Ref
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Less(b[0]):
			x, a = a[0], a[1:]
		case len(a) == 0 || b[0].Less(a[0]):
			x, b = b[0], b[1:]
		default:
			x, a, b = a[0], a[1:], b[1:]
		}
		if len(dst) == 0 || dst[len(dst)-1] != x {
			dst = append(dst, x)
		}
	}
	return dst
}

// scanMaxBelow and scanMinAbove answer "max{x : x < id}" and "min{x : x >
// id}" over a Less-sorted slice by a linear scan.
func scanMaxBelow(rs []ref.Ref, id ident.ID) (ref.Ref, bool) {
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i].ID() < id {
			return rs[i], true
		}
	}
	return ref.Ref{}, false
}

func scanMinAbove(rs []ref.Ref, id ident.ID) (ref.Ref, bool) {
	for _, r := range rs {
		if r.ID() > id {
			return r, true
		}
	}
	return ref.Ref{}, false
}

func absDiff(a, b ident.ID) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}

// overlappingNeighborhood is rule 2: every sibling is tested against
// every unmarked edge.
func (l *literal) overlappingNeighborhood(c *ruleContext) {
	n := c.n
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()
		c.w.snap = append(c.w.snap[:0], ui.Nu.Slice()...)
		for _, w := range c.w.snap {
			wID := w.ID()
			// The sibling closest to w strictly between w and u_i.
			var best ref.Ref
			found := false
			for _, s := range c.w.sibs {
				sID := s.ID()
				if s == ui.Self {
					continue
				}
				inLeft := wID < sID && sID < uiID  // w < u_j < u_i
				inRight := wID > sID && sID > uiID // w > u_j > u_i
				if !inLeft && !inRight {
					continue
				}
				if !found || absDiff(sID, wID) < absDiff(best.ID(), wID) {
					best, found = s, true
				}
			}
			if found {
				c.w.fired[c.cur]++
				ui.Nu.Remove(w)
				n.vnodes[best.Level()].addNu(w)
			}
		}
	}
}

// closestRealNeighbor is rule 3 over the real nodes of N(u).
func (l *literal) closestRealNeighbor(c *ruleContext) {
	n := c.n
	l.knownSet(n, c.w.sibs)
	l.reals = l.reals[:0]
	for _, r := range l.known {
		if r.IsReal() {
			l.reals = append(l.reals, r)
		}
	}
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()

		// left-realneighbor
		if v, ok := scanMaxBelow(l.reals, uiID); ok {
			ui.HasRL, ui.RL = true, v
			ui.addNu(v)
			for _, y := range ui.Nu.Slice() {
				yID := y.ID()
				if !(yID > uiID || (v.ID() < yID && yID < uiID)) {
					continue
				}
				if e := c.nw.viewOf(y); e.HasRL && e.RL.ID() >= v.ID() {
					continue
				}
				c.send(y, graph.Unmarked, v)
			}
		} else {
			ui.HasRL = false
		}

		// right-realneighbor
		if v, ok := scanMinAbove(l.reals, uiID); ok {
			ui.HasRR, ui.RR = true, v
			ui.addNu(v)
			for _, y := range ui.Nu.Slice() {
				yID := y.ID()
				if !(yID < uiID || (v.ID() > yID && yID > uiID)) {
					continue
				}
				if e := c.nw.viewOf(y); e.HasRR && e.RR.ID() <= v.ID() {
					continue
				}
				c.send(y, graph.Unmarked, v)
			}
		} else {
			ui.HasRR = false
		}
	}
}

// ringEdges is rule 5, with N(u) ∪ N_r(u_i) merged afresh for every ring
// edge.
func (l *literal) ringEdges(c *ruleContext) {
	n := c.n
	l.knownSet(n, c.w.sibs)
	lo, hi := l.known[0], l.known[len(l.known)-1]

	// create-all-ring-edges
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()
		if _, hasLeft := scanMaxBelow(ui.Nu.Slice(), uiID); !hasLeft && hi != ui.Self {
			c.send(hi, graph.Ring, ui.Self)
		}
		if _, hasRight := scanMinAbove(ui.Nu.Slice(), uiID); !hasRight && lo != ui.Self {
			c.send(lo, graph.Ring, ui.Self)
		}
	}

	// forward-all-ring-edges
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()
		c.w.snap = append(c.w.snap[:0], ui.Nr.Slice()...)
		for _, w := range c.w.snap {
			wID := w.ID()
			l.cand = mergeSorted(l.cand[:0], l.known, ui.Nr.Slice())
			switch {
			case wID > uiID:
				if x, ok := scanMinAbove(l.cand, wID); ok {
					c.send(x, graph.Unmarked, w)
					ui.Nr.Remove(w)
				} else if lo != ui.Self {
					c.send(lo, graph.Ring, w)
					ui.Nr.Remove(w)
				}
			case wID < uiID:
				if x, ok := scanMaxBelow(l.cand, wID); ok {
					c.send(x, graph.Unmarked, w)
					ui.Nr.Remove(w)
				} else if hi != ui.Self {
					c.send(hi, graph.Ring, w)
					ui.Nr.Remove(w)
				}
			default:
				c.send(w, graph.Unmarked, ui.Self)
				ui.Nr.Remove(w)
			}
		}
	}
}

// connectionEdges is rule 6, with N_u(u_i) ∪ S(u_i) merged for every
// connection edge.
func (l *literal) connectionEdges(c *ruleContext) {
	n, sibs := c.n, c.w.sibs
	for i := 0; i+1 < len(sibs); i++ {
		n.vnodes[sibs[i].Level()].addNc(sibs[i+1])
	}
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		for _, v := range ui.Nc.Slice() {
			l.cand = mergeSorted(l.cand[:0], ui.Nu.Slice(), sibs)
			if w, ok := scanMaxBelow(l.cand, v.ID()); ok && w != ui.Self {
				c.send(w, graph.Connection, v)
			} else {
				c.send(v, graph.Unmarked, ui.Self)
			}
		}
		ui.Nc.Clear()
	}
}
