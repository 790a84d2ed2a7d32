package rechord

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// ruleContext carries one peer's in-round working state: the rules'
// immediate assignments mutate the node directly, delayed assignments
// append to w.out. Every scratch buffer the rules touch lives on the
// executing worker (see barrier.go), never on the peer, so a peer at
// rest holds protocol state only and a worker's buffers are reused by
// every peer it runs. The rules' guards are order queries on sets the
// peer already holds ("the closest real node below u_i", "min{x ∈ N(u)
// ∪ N_r(u_i) : x > w}"); each is answered by binary searches (or, in
// rule 6, forward walks) on those sets, never on a materialised N(u).
// cur is the index (0-based, obs.RuleNames order) of the rule currently
// executing, so send can attribute each message to its rule with a
// plain local increment.
type ruleContext struct {
	nw  *Network
	n   *RealNode
	w   *worker
	cur int
}

// send enqueues a delayed edge insertion ("A <= B"): the destination
// only becomes aware of the edge in the next round.
func (c *ruleContext) send(to ref.Ref, k graph.Kind, add ref.Ref) {
	if to == add {
		return
	}
	c.w.fired[c.cur]++
	c.w.out = append(c.w.out, Message{To: to, Kind: k, Add: add})
}

// runRules executes rules 1-6 in the paper's order for one peer,
// leaving the generated messages in w.out and adding the rule tallies
// to w's. The receiver only reads its own state and the round-start
// view of other nodes' published variables, so peers can run
// concurrently, one worker each.
func (nw *Network) runRules(n *RealNode, w *worker) {
	w.out = w.out[:0]
	c := ruleContext{nw: nw, n: n, w: w}
	c.ruleVirtualNodes()
	c.cur = 1
	c.ruleOverlappingNeighborhood()
	c.cur = 2
	c.ruleClosestRealNeighbor()
	c.cur = 3
	c.ruleLinearization()
	if !nw.cfg.DisableRing {
		c.cur = 4
		c.ruleRingEdges()
	}
	c.cur = 5
	c.ruleConnectionEdges()
}

// ruleVirtualNodes implements rule 1: recompute m from the peer's
// outgoing edges to real nodes, create the missing virtual nodes
// u_1..u_m, and delete levels beyond m, merging each deleted node's
// neighborhoods into N_u(u_m).
func (c *ruleContext) ruleVirtualNodes() {
	n, w := c.n, c.w
	w.knownReals(n)
	m := ident.LevelFor(n.id, w.realID)
	// create-virtualnodes: fill levels 1..m (including any seeding
	// holes below m).
	for i := 1; i <= m; i++ {
		if n.VNode(i) == nil {
			n.ensureLevel(i)
			w.made++
			c.w.fired[c.cur]++
		}
	}
	// delete-virtualnodes: inform u_m of each deleted node's
	// neighborhood (N_u ∪ N_r ∪ N_c), then drop the node.
	dropped := m+1 < len(n.vnodes)
	um := n.vnodes[m]
	gone := func(r ref.Ref) bool { // a sibling also being deleted
		return r.Owner() == n.id && r.Level() > m
	}
	for l := m + 1; l < len(n.vnodes); l++ {
		v := n.vnodes[l]
		if v == nil {
			continue
		}
		for _, s := range w.edgeSets(v, l) {
			for _, r := range s.Slice() {
				if !gone(r) {
					um.addNu(r)
				}
			}
		}
		w.nc[l].Clear()
		w.killed++
		c.w.fired[c.cur]++
		n.vnodes[l] = nil // release before the truncation below
	}
	n.vnodes = n.vnodes[:m+1]
	// Drop references to the peer's own no-longer-existing levels: the
	// peer knows its own virtual node set exactly. After the create
	// and delete passes the level set is contiguous 0..m. Only a drop
	// leaves any: after purge no set holds a reference at or beyond the
	// published span, which is the level span the peer began with.
	if dropped {
		for l, v := range n.vnodes {
			for _, s := range w.edgeSets(v, l) {
				s.RemoveIf(gone)
			}
		}
	}
	// The level set is final for this round: cache the derived orders
	// the later rules iterate.
	w.levels = n.levelsInto(w.levels)
	w.sibs = n.siblingsInto(w.sibs)
}

// ruleOverlappingNeighborhood implements rule 2: if a neighbor w of
// u_i has a sibling u_j strictly between w and u_i, the edge is handed
// to the sibling closest to w — both nodes belong to the same peer, so
// the move is immediate.
func (c *ruleContext) ruleOverlappingNeighborhood() {
	n := c.n
	sibs := c.w.sibs
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()
		c.w.snap = append(c.w.snap[:0], ui.Nu.Slice()...)
		for _, w := range c.w.snap {
			// Sibling identifiers are distinct, so the sibling closest to
			// w strictly between w and u_i is the first one past w toward
			// u_i, provided it falls short of u_i.
			wID := w.ID()
			var best ref.Ref
			found := false
			if wID < uiID {
				best, found = ref.MinAbove(sibs, wID)
				found = found && best.ID() < uiID
			} else if wID > uiID {
				best, found = ref.MaxBelow(sibs, wID)
				found = found && best.ID() > uiID
			}
			if found {
				// An immediate intra-peer handoff is rule 2's action.
				c.w.fired[c.cur]++
				ui.Nu.Remove(w)
				n.vnodes[best.Level()].addNu(w)
			}
		}
	}
}

// ruleClosestRealNeighbor implements rule 3: every virtual node finds
// the closest real node to its left and right within the peer's known
// neighborhood N(u_i), stores them in rl/rr, keeps them in N_u, and
// informs the unmarked neighbors for which the find is an improvement
// over their published rl/rr.
func (c *ruleContext) ruleClosestRealNeighbor() {
	n := c.n
	// The candidates are the real nodes of N(u): the peer itself (its
	// only real sibling) and the real references of its unmarked sets,
	// held as sorted identifiers, since a real node's identifier is its
	// owner. Adding rl/rr to N_u below adds no new candidate.
	reals := append(c.w.realID[:0], n.id)
	for _, v := range n.vnodes {
		for _, r := range v.Nu.Slice() {
			if r.IsReal() {
				reals = append(reals, r.Owner())
			}
		}
	}
	slices.Sort(reals)
	reals = slices.Compact(reals)
	c.w.realID = reals
	nw := c.nw
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()
		i, exact := slices.BinarySearch(reals, uiID)

		// left-realneighbor
		if i > 0 {
			v := ref.Real(reals[i-1])
			ui.HasRL = true
			ui.RL = v
			ui.addNu(v)
			for _, y := range ui.Nu.Slice() {
				yID := y.ID()
				if !(yID > uiID || (v.ID() < yID && yID < uiID)) {
					continue
				}
				if e := nw.viewOf(y); e.HasRL && e.RL.ID() >= v.ID() {
					continue // y already knows an equal or closer left real
				}
				c.send(y, graph.Unmarked, v)
			}
		} else {
			ui.HasRL = false
		}

		// right-realneighbor
		if exact {
			i++
		}
		if i < len(reals) {
			v := ref.Real(reals[i])
			ui.HasRR = true
			ui.RR = v
			ui.addNu(v)
			for _, y := range ui.Nu.Slice() {
				yID := y.ID()
				if !(yID < uiID || (v.ID() > yID && yID > uiID)) {
					continue
				}
				if e := nw.viewOf(y); e.HasRR && e.RR.ID() <= v.ID() {
					continue // y already knows an equal or closer right real
				}
				c.send(y, graph.Unmarked, v)
			}
		} else {
			ui.HasRR = false
		}
	}
}

// ruleLinearization implements rule 4: each virtual node keeps only
// its closest unmarked neighbor on each side, forwarding every farther
// edge one hop toward its endpoint (sorted order), then mirrors itself
// to the closest neighbors and re-adds rl/rr.
func (c *ruleContext) ruleLinearization() {
	n := c.n
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()

		// lin-left: neighbors smaller than u_i in descending order
		// w_1 > w_2 > ...; edge to w_{l+1} is forwarded to w_l.
		lefts, rights := c.w.lefts[:0], c.w.rights[:0]
		for _, w := range ui.Nu.Slice() {
			if w.ID() < uiID {
				lefts = append(lefts, w)
			} else if w.ID() > uiID {
				rights = append(rights, w)
			} else if w != ui.Self {
				// Equal identifier, distinct node (hash collision):
				// treat as a right neighbor at distance zero.
				rights = append(rights, w)
			}
		}
		c.w.lefts, c.w.rights = lefts, rights
		// Slice() is ascending; lefts ascending means the last element
		// is the closest left neighbor, which is kept.
		for i := 0; i+1 < len(lefts); i++ {
			v, w := lefts[i], lefts[i+1] // v = max{y < w}
			c.send(w, graph.Unmarked, v)
			ui.Nu.Remove(v)
		}
		// rights ascending: first element is closest and kept.
		for i := len(rights) - 1; i > 0; i-- {
			v, w := rights[i], rights[i-1] // v = min{y > w}
			c.send(w, graph.Unmarked, v)
			ui.Nu.Remove(v)
		}

		// mirroring: the surviving closest neighbors learn about u_i,
		// and rl/rr stay in N_u so the closest-real knowledge is never
		// lost to forwarding.
		for _, v := range ui.Nu.Slice() {
			c.send(v, graph.Unmarked, ui.Self)
		}
		if ui.HasRL {
			ui.addNu(ui.RL)
		}
		if ui.HasRR {
			ui.addNu(ui.RR)
		}
	}
}

// ruleRingEdges implements rule 5: a virtual node missing a left
// (right) neighbor asks the largest (smallest) known node to hold a
// ring edge to it; ring-edge holders forward the edge toward the
// global maximum (minimum) or dissolve it into an unmarked edge when
// they know a node beyond the edge's target.
func (c *ruleContext) ruleRingEdges() {
	n := c.n
	// The rule touches only N_r, so N(u)'s extremes hold throughout.
	lo, hi := c.knownBounds()

	// create-all-ring-edges
	for _, level := range c.w.levels {
		ui := n.vnodes[level]
		uiID := ui.Self.ID()
		if _, hasLeft := ui.Nu.MaxBelow(uiID); !hasLeft && hi != ui.Self {
			c.send(hi, graph.Ring, ui.Self)
		}
		if _, hasRight := ui.Nu.MinAbove(uiID); !hasRight && lo != ui.Self {
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
			// candidates x come from N(u_i) ∪ N_r(u_i)
			switch {
			case wID > uiID:
				// w believes it is the global maximum. If someone
				// beyond w is known, hand w that connection; else
				// forward the ring edge toward the global minimum.
				if x, ok := c.knownAbove(ui.Nr, wID); ok {
					c.send(x, graph.Unmarked, w)
					ui.Nr.Remove(w)
				} else if lo != ui.Self {
					c.send(lo, graph.Ring, w)
					ui.Nr.Remove(w)
				}
			case wID < uiID:
				if x, ok := c.knownBelow(ui.Nr, wID); ok {
					c.send(x, graph.Unmarked, w)
					ui.Nr.Remove(w)
				} else if hi != ui.Self {
					c.send(hi, graph.Ring, w)
					ui.Nr.Remove(w)
				}
			default:
				// Identifier collision with the holder: dissolve into
				// an unmarked edge so the pair linearizes locally.
				c.send(w, graph.Unmarked, ui.Self)
				ui.Nr.Remove(w)
			}
		}
	}
}

// knownBounds returns the least and the greatest element of N(u), the
// siblings plus every level's N_u: the extremes of each set's own.
func (c *ruleContext) knownBounds() (lo, hi ref.Ref) {
	lo, hi = c.w.sibs[0], c.w.sibs[len(c.w.sibs)-1]
	for _, v := range c.n.vnodes {
		if x, ok := v.Nu.Min(); ok && x.Less(lo) {
			lo = x
		}
		if x, ok := v.Nu.Max(); ok && hi.Less(x) {
			hi = x
		}
	}
	return lo, hi
}

// knownAbove returns min{x ∈ N(u) ∪ nr : x > id} and knownBelow
// max{x ∈ N(u) ∪ nr : x < id}: the extreme of each set's own answer,
// with no union built.
func (c *ruleContext) knownAbove(nr ref.Set, id ident.ID) (ref.Ref, bool) {
	x, ok := nr.MinAbove(id)
	x, ok = above(x, ok, c.w.sibs, id)
	for _, v := range c.n.vnodes {
		x, ok = above(x, ok, v.Nu.Slice(), id)
	}
	return x, ok
}

func (c *ruleContext) knownBelow(nr ref.Set, id ident.ID) (ref.Ref, bool) {
	x, ok := nr.MaxBelow(id)
	x, ok = below(x, ok, c.w.sibs, id)
	for _, v := range c.n.vnodes {
		x, ok = below(x, ok, v.Nu.Slice(), id)
	}
	return x, ok
}

// above folds the Less-sorted rs's smallest element above id into the
// running minimum x (ok reports whether x is set); below folds its
// largest element below id into a running maximum.
func above(x ref.Ref, ok bool, rs []ref.Ref, id ident.ID) (ref.Ref, bool) {
	if y, yok := ref.MinAbove(rs, id); yok && (!ok || y.Less(x)) {
		return y, true
	}
	return x, ok
}

func below(x ref.Ref, ok bool, rs []ref.Ref, id ident.ID) (ref.Ref, bool) {
	if y, yok := ref.MaxBelow(rs, id); yok && (!ok || x.Less(y)) {
		return y, true
	}
	return x, ok
}

// ruleConnectionEdges implements rule 6: contiguous virtual siblings
// are linked by connection edges, which are then routed through the
// network toward their target, leaving behind the unmarked backward
// edge that glues the sibling's interval to its predecessor. N_c is the
// worker's; Config.DisableConnection skips the sibling edges alone, so
// delivered edges are forwarded in every configuration.
func (c *ruleContext) ruleConnectionEdges() {
	n, sibs := c.n, c.w.sibs

	// connect-virtual-nodes: consecutive siblings in sorted order.
	if !c.nw.cfg.DisableConnection {
		for i := 0; i+1 < len(sibs); i++ {
			c.w.ncAt(sibs[i].Level()).Add(sibs[i+1])
		}
	}

	// forward-all-cedges
	for _, level := range c.w.levels {
		ui, nc := n.vnodes[level], c.w.ncAt(level)
		if nc.Empty() {
			continue
		}
		// Forwarding sends messages but never touches N_u, the sibling
		// set or N_c, and every branch retires the edge, so N_c is
		// emptied once after the loop. N_c ascends, so the hop for each
		// edge is found by two cursors that only move forward: nu and sb
		// count the elements of N_u(u_i) and of the sibling list below
		// the current edge's identifier.
		nuRefs := ui.Nu.Slice()
		nu, sb := 0, 0
		for _, v := range nc.Slice() {
			// w = max{x in N_u(u_i) ∪ S(u_i) : x < v}
			vID := v.ID()
			for nu < len(nuRefs) && nuRefs[nu].ID() < vID {
				nu++
			}
			for sb < len(sibs) && sibs[sb].ID() < vID {
				sb++
			}
			var w ref.Ref
			ok := nu > 0
			if ok {
				w = nuRefs[nu-1]
			}
			if sb > 0 && (!ok || w.Less(sibs[sb-1])) {
				w, ok = sibs[sb-1], true
			}
			if ok && w != ui.Self {
				c.send(w, graph.Connection, v)
			} else {
				// u_i itself is the largest known node below v (or
				// nothing below v is known): create the unmarked
				// backward edge (v, u_i).
				c.send(v, graph.Unmarked, ui.Self)
			}
		}
		nc.Clear()
	}
}
