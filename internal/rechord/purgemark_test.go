package rechord

import (
	"fmt"
	"math/rand"
	"slices"
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
	nw, ids := joinedNet(t, n, seed)
	settle(t, nw, "build")
	return nw, ids
}

// joinedNet is markedNet's network before its first step.
func joinedNet(t *testing.T, n int, seed int64) (*Network, []ident.ID) {
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
				if r.Owner() == owner {
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
			if r.addID() == owner {
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
				if add := rec.addID(); add != n.id && add != s.id && !holds(n, add) {
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
			if v != nil && (v.Nu.Contains(x) || v.Nr.Contains(x)) {
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

// partedNets builds joinedNet's network twice and wraps each as one rank
// of a two-way partition, rank k hosting the identifiers of parity k.
func partedNets(t *testing.T, n int, seed int64) ([]*Partition, []ident.ID) {
	t.Helper()
	parts := make([]*Partition, 2)
	var ids []ident.ID
	for k := range parts {
		var nw *Network
		nw, ids = joinedNet(t, n, seed)
		parts[k] = NewPartition(nw, hostedBy(k))
	}
	return parts, ids
}

// hostedBy is rank k's hosting predicate in partedNets.
func hostedBy(k int) func(ident.ID) bool {
	return func(id ident.ID) bool { return int(uint64(id)%2) == k }
}

// applyAll applies every rank's effects at every rank, in rank order.
func applyAll(parts []*Partition, effects []Effects) {
	for k := range effects {
		for _, p := range parts {
			p.Apply(&effects[k])
		}
	}
}

// settleParts steps the ranks to quiescence. Each round exchange applies
// the ranks' drained effects (applyAll when nil), and the marks are
// audited after it.
func settleParts(t *testing.T, parts []*Partition, what string, exchange func(round int, effects []Effects)) {
	t.Helper()
	if exchange == nil {
		exchange = func(_ int, effects []Effects) { applyAll(parts, effects) }
	}
	for round := 1; ; round++ {
		if round > 2000 {
			t.Fatalf("%s: no quiescence in 2000 rounds", what)
		}
		effects := make([]Effects, len(parts))
		moved, quiet := false, true
		for k, p := range parts {
			p.Step()
			effects[k] = p.Drain()
			moved = moved || effects[k].Len() > 0
		}
		exchange(round, effects)
		for k, p := range parts {
			CheckPurgeMarks(t, p.Network(), fmt.Sprintf("%s: rank %d round %d", what, k, round))
			quiet = quiet && p.Quiescent()
		}
		if !moved && quiet {
			return
		}
	}
}

// TestPurgeMarkShorterViewFromPublish: the same drop under a two-way
// partition, x hosted at one rank and r at the other, so r's rank learns
// of the shorter span only through applyPublish.
func TestPurgeMarkShorterViewFromPublish(t *testing.T) {
	parts, ids := partedNets(t, 24, 5)
	var x, r ident.ID
	for _, id := range ids {
		switch {
		case hostedBy(1)(id) && x == 0:
			x = id
		case hostedBy(0)(id) && r == 0:
			r = id
		}
	}
	settleParts(t, parts, "build", nil)
	local := parts[0].Network() // r's rank, where x is a stub
	// The published span is replicated; a stub's own levels are not.
	uk := ref.Virtual(x, len(local.view[local.node(x).idx])+1)
	for _, p := range parts {
		p.Network().SeedEdge(uk, ref.Real(r), graph.Unmarked)
		p.Network().SeedEdge(ref.Real(r), uk, graph.Unmarked)
	}
	settleParts(t, parts, "after the drop", func(round int, effects []Effects) {
		applyAll(parts, effects)
		if round == 1 && len(local.view[local.node(x).idx]) >= uk.Level() {
			t.Fatalf("the publish left %s's stub with its level %d", x, uk.Level())
		}
	})
	if h := holders(local, uk); len(h) > 0 {
		t.Fatalf("%v still hold the dropped %s at its rank", h, uk)
	}
}

// TestPurgeMarkPartitionInstallKeepsMark: a bucket update from a remote
// sender is that sender's output of the batch that just ran at its host,
// so Partition.Apply's install keeps the recipient's mark, as the
// monolith's commit of the same install does. Checked at every marked
// recipient of every exchange of a two-way settle in which no shorter
// span arrived.
func TestPurgeMarkPartitionInstallKeepsMark(t *testing.T) {
	parts, _ := partedNets(t, 24, 5)
	kept := 0
	settleParts(t, parts, "build", func(round int, effects []Effects) {
		type at struct {
			nw *Network
			n  *RealNode
		}
		var marked []at
		shrinks := make([]uint64, len(parts))
		for k, p := range parts {
			nw := p.Network()
			shrinks[k] = nw.shrinks
			for _, e := range effects {
				for _, u := range e.Buckets {
					if n := nw.node(u.To); n != nil && !n.remote && nw.marked(n) {
						marked = append(marked, at{nw, n})
					}
				}
			}
		}
		applyAll(parts, effects)
		for k, p := range parts {
			if p.Network().shrinks != shrinks[k] {
				return
			}
		}
		for _, m := range marked {
			if !m.nw.marked(m.n) {
				t.Fatalf("round %d: Apply's install cleared %s's purge mark", round, m.n.id)
			}
			if !m.n.dirty {
				t.Fatalf("round %d: Apply's install did not wake %s", round, m.n.id)
			}
			kept++
		}
	})
	if kept == 0 {
		t.Fatal("no bucket update reached a marked recipient")
	}
	t.Logf("%d installs kept their recipient's mark", kept)
}

// TestPurgeMarkAsyncInstallKeepsMark: under the asynchronous runner
// too, a batch commit's install is its sender's purged output, so it
// keeps the recipient's mark, and the recipient's next deliver skips the
// purge. A join into a settled network makes relays rewrite standing
// buckets at peers that do not run in that step.
func TestPurgeMarkAsyncInstallKeepsMark(t *testing.T) {
	nw, ids := markedNet(t, 24, 7)
	a := NewAsyncRunner(nw, AsyncConfig{ActivationProb: 1, Delay: UniformDelay{Max: 1}}, rand.New(rand.NewSource(7)))
	if err := nw.Join(ident.ID(rand.New(rand.NewSource(8)).Uint64()), ids[3]); err != nil {
		t.Fatal(err)
	}
	for step := 1; !a.Quiescent(); step++ {
		if step > 2000 {
			t.Fatal("no quiescence in 2000 steps")
		}
		// The buckets of the marked peers that will not run this step.
		before := map[*RealNode][]bucket{}
		for _, n := range nw.pt.nodes {
			if n != nil && !n.dirty && nw.marked(n) {
				before[n] = slices.Clone(n.in)
			}
		}
		shrinks := nw.shrinks
		a.Step()
		CheckPurgeMarks(t, nw, fmt.Sprintf("step %d", step))
		if nw.shrinks != shrinks {
			continue
		}
		for n, in := range before {
			if !installed(in, n.in) {
				continue
			}
			if !nw.marked(n) {
				t.Fatalf("step %d: a commit's install cleared %s's purge mark", step, n.id)
			}
			if !n.dirty || len(n.inbox) > 0 {
				t.Fatalf("step %d: %s was not woken by the install alone", step, n.id)
			}
			want := 0 // the peers whose next deliver skips the purge
			for _, m := range nw.pt.nodes {
				if m != nil && m.dirty && nw.marked(m) && len(m.inbox) == 0 {
					want++
				}
			}
			skipped := nw.met.PurgesSkipped.Value()
			a.Step()
			if got := nw.met.PurgesSkipped.Value() - skipped; got != uint64(want) {
				t.Fatalf("step %d: %d delivers skipped the purge, want %d (%s among them)", step+1, got, want, n.id)
			}
			return
		}
	}
	t.Fatal("no commit installed a bucket at a marked peer that did not run")
}

// installed reports whether cur holds a bucket whose contribution is not
// the one the same sender's bucket held in old.
func installed(old, cur []bucket) bool {
	for _, b := range cur {
		i := slices.IndexFunc(old, func(o bucket) bool { return o.sender == b.sender })
		if i < 0 || old[i].c != b.c {
			return true
		}
	}
	return false
}
