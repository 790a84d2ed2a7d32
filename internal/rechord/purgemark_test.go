package rechord

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// The purge mark lets a peer skip its stale-reference scan while no
// departure or shorter level span has been counted since a scan found
// nothing (deliverPhase). These tests drive each counted event — a
// departure, a level span published shorter by the commit, and one
// arriving through Partition.applyPublish — against a peer whose last
// purge was clean, and audit the mark after every step (CheckPurgeMarks):
// an event the count missed leaves a stale reference behind a current
// mark.

// markedNet joins n peers at random identifiers through the first one
// and steps the network to quiescence, auditing the marks every round.
func markedNet(t *testing.T, n int, seed int64) (*Network, []ident.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := NewNetwork(Config{Workers: 4}) // the pass sets marks the commit clears
	ids := make([]ident.ID, n)
	for i := range ids {
		ids[i] = ident.ID(rng.Uint64())
	}
	nw.AddPeer(ids[0])
	for _, id := range ids[1:] {
		if err := nw.Join(id, ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, nw, "build")
	return nw, ids
}

// settle steps nw to quiescence, auditing the marks after every round.
func settle(t *testing.T, nw *Network, what string) {
	t.Helper()
	for r := 0; !nw.Quiescent(); r++ {
		if r > 2000 {
			t.Fatalf("%s: no quiescence in 2000 rounds", what)
		}
		nw.Step()
		CheckPurgeMarks(t, nw, fmt.Sprintf("%s round %d", what, nw.Round()))
	}
}

// marked reports whether the peer's purge mark is current.
func (nw *Network) marked(n *RealNode) bool { return n.purged == nw.shrinks+1 }

// holds reports whether the peer's edge sets reference the owner, and
// mentions whether they or its last output do.
func holds(n *RealNode, owner ident.ID) bool {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, s := range v.sets() {
			for _, r := range s.Slice() {
				if r.Owner == owner {
					return true
				}
			}
		}
	}
	return false
}

func mentions(n *RealNode, owner ident.ID) bool {
	for _, c := range n.lastFlow {
		if c.owner() == owner {
			return true
		}
		for _, r := range c.recs() {
			if r.add() == owner {
				return true
			}
		}
	}
	return holds(n, owner)
}

// TestPurgeMarkDepartureDropsBucketRef: a standing bucket at R from
// sender S carries a reference to X, which R's edge sets do not hold (a
// connection edge R relays on), and R's last purge was clean. X fails: R's next run delivers the
// bucket again, and its purge must run and drop X, so neither R's sets
// nor its output mention X after it.
func TestPurgeMarkDepartureDropsBucketRef(t *testing.T) {
	nw, _ := markedNet(t, 24, 3)
	var r *RealNode
	var x ident.ID
	for _, n := range nw.pt.nodes {
		if n == nil || !nw.marked(n) {
			continue
		}
		for _, b := range n.in {
			s := nw.pt.byHandle(b.sender)
			for _, rec := range b.c.recs() {
				if add := rec.add(); add != n.id && add != s.id && !holds(n, add) {
					r, x = n, add
				}
			}
		}
	}
	if r == nil {
		t.Fatal("no peer holds a bucket reference its own state lacks")
	}
	if err := nw.Fail(x); err != nil {
		t.Fatal(err)
	}
	CheckPurgeMarks(t, nw, "after the failure")
	if !r.dirty {
		t.Fatalf("the failure of %s did not wake %s", x, r.id)
	}
	nw.Step()
	if mentions(r, x) {
		t.Fatalf("%s still references the failed %s after its run", r.id, x)
	}
	CheckPurgeMarks(t, nw, "after the repair round")
	settle(t, nw, "repair")
	if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
		t.Fatal(err)
	}
}

// seedDroppedLevel gives x a virtual level two past its m, which its
// next run drops, and r a reference to that level: r's next purge finds
// it live, and the shorter span x publishes afterwards makes it stale.
func seedDroppedLevel(nw *Network, x, r ident.ID) ref.Ref {
	uk := ref.Virtual(x, nw.node(x).MaxLevel()+2)
	nw.SeedEdge(uk, ref.Real(r), graph.Unmarked)
	nw.SeedEdge(ref.Real(r), uk, graph.Unmarked)
	return uk
}

// holders lists the peers whose edge sets hold the reference.
func holders(nw *Network, x ref.Ref) []ident.ID {
	var out []ident.ID
	for _, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		for _, v := range n.vnodes {
			if v != nil && (v.Nu.Contains(x) || v.Nr.Contains(x) || v.Nc.Contains(x)) {
				out = append(out, n.id)
				break
			}
		}
	}
	return out
}

// TestPurgeMarkDroppedLevel: a reference to x's level k outlives the
// level. Once x's commit publishes the shorter span, every holder must
// purge again, so the reference becomes x's real node everywhere.
func TestPurgeMarkDroppedLevel(t *testing.T) {
	nw, ids := markedNet(t, 24, 5)
	x, r := ids[4], ids[9]
	uk := seedDroppedLevel(nw, x, r)
	nw.Step()
	if got := len(nw.view[nw.node(x).idx]); got >= uk.Level() {
		t.Fatalf("%s still publishes %d levels, want level %d dropped", x, got, uk.Level())
	}
	CheckPurgeMarks(t, nw, "after the drop")
	settle(t, nw, "after the drop")
	if h := holders(nw, uk); len(h) > 0 {
		t.Fatalf("%v still hold the dropped %s", h, uk)
	}
	if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
		t.Fatal(err)
	}
}

// TestPurgeMarkShorterViewFromPublish: the same drop under a two-way
// partition, x hosted at one rank and r at the other, so r's rank learns
// of the shorter span only through applyPublish.
func TestPurgeMarkShorterViewFromPublish(t *testing.T) {
	var parts [2]*Partition
	var ids []ident.ID
	hosted := func(k int) func(ident.ID) bool {
		return func(id ident.ID) bool { return int(uint64(id)%2) == k }
	}
	var x, r ident.ID
	var uk ref.Ref
	for k := range parts {
		var nw *Network
		nw, ids = markedNet(t, 24, 5)
		if k == 0 {
			for _, id := range ids {
				switch {
				case hosted(1)(id) && x == 0:
					x = id
				case hosted(0)(id) && r == 0:
					r = id
				}
			}
		}
		uk = seedDroppedLevel(nw, x, r)
		parts[k] = NewPartition(nw, hosted(k))
	}
	local := parts[0].Network() // r's rank, where x is a stub
	for round := 1; ; round++ {
		if round > 2000 {
			t.Fatal("no quiescence in 2000 rounds")
		}
		for _, p := range parts {
			p.Step()
		}
		var effects [2]Effects
		moved := false
		for k, p := range parts {
			effects[k] = p.Drain()
			moved = moved || effects[k].Len() > 0
		}
		for k := range effects {
			for _, p := range parts {
				p.Apply(&effects[k])
			}
		}
		for k, p := range parts {
			CheckPurgeMarks(t, p.Network(), fmt.Sprintf("rank %d round %d", k, round))
		}
		if round == 1 && len(local.view[local.node(x).idx]) >= uk.Level() {
			t.Fatalf("the publish left %s's stub with its level %d", x, uk.Level())
		}
		if !moved && parts[0].Quiescent() && parts[1].Quiescent() {
			break
		}
	}
	if h := holders(local, uk); len(h) > 0 {
		t.Fatalf("%v still hold the dropped %s at its rank", h, uk)
	}
}
