package rechord

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// White-box regressions for the standing-flow contributions: the
// immutability the sharing rests on, the tally bookkeeping, the packed
// round-trip, and the incremental freeze against a from-scratch build.

// freezeScratch is the oracle freezeFlow is held to: out frozen with no
// predecessor and no scratch reuse — one fresh contribution per
// recipient, recipients sorted, emission order kept inside each.
func freezeScratch(out []Message) []*contrib {
	var owners []ident.ID
	for _, m := range out {
		if i, ok := slices.BinarySearch(owners, m.To.Owner()); !ok {
			owners = slices.Insert(owners, i, m.To.Owner())
		}
	}
	var flow []*contrib
	for _, o := range owners {
		msgs := recipientMsgs(out, o)
		c := newContrib(o, len(msgs))
		for i, m := range msgs {
			c.recs()[i] = PackRecord(m)
		}
		flow = append(flow, c)
	}
	return flow
}

// appendFlow reconstitutes a flow index onto dst, recipient by
// recipient.
func appendFlow(dst []Message, flow []*contrib) []Message {
	for _, c := range flow {
		dst = c.appendMsgs(dst)
	}
	return dst
}

// recipientMsgs is out's messages to owner, in emission order.
func recipientMsgs(out []Message, owner ident.ID) []Message {
	var ms []Message
	for _, m := range out {
		if m.To.Owner() == owner {
			ms = append(ms, m)
		}
	}
	return ms
}

// checkFreeze holds diffFlow and freezeFlow on (old, out) to the oracles:
// the verdict and every recipient's verdict to a plain comparison of
// per-recipient message sequences, and the flow index, record for
// record, to freezeScratch(out). A recipient keeps old's contribution
// exactly when its verdict is "same". It returns the index, a copy out
// of w's arena.
func checkFreeze(t testing.TB, old []*contrib, out []Message, w *worker) []*contrib {
	t.Helper()
	changed := diffFlow(old, out, w)
	plain := freezeScratch(out)
	want := len(plain) != len(old)
	for _, d := range w.order {
		sd := w.diff[d]
		oc := findContrib(old, sd.owner)
		same := oc != nil && slices.Equal(oc.appendMsgs(nil), recipientMsgs(out, sd.owner))
		if sd.same != same {
			t.Fatalf("recipient %s: verdict same=%v, plain comparison %v", sd.owner, sd.same, same)
		}
		want = want || !same
	}
	if changed != want {
		t.Fatalf("diffFlow reports changed=%v, plain comparison %v", changed, want)
	}
	got := slices.Clone(w.freezeFlow(old))
	w.flows = w.flows[:0]
	if len(got) != len(plain) {
		t.Fatalf("incremental freeze has %d recipients, the from-scratch build %d", len(got), len(plain))
	}
	for k, c := range got {
		if c.owner() != plain[k].owner() || !slices.Equal(c.recs(), plain[k].recs()) {
			t.Fatalf("incremental freeze differs from the from-scratch build at recipient %s:\n got %v\nwant %v",
				plain[k].owner(), c.appendMsgs(nil), plain[k].appendMsgs(nil))
		}
		if kept := c == findContrib(old, c.owner()); kept != w.diff[w.order[k]].same {
			t.Fatalf("recipient %s: kept its contribution %v, verdict same=%v", c.owner(), kept, !kept)
		}
	}
	return got
}

// TestFreezeMatchesScratch: over random (old, out) pairs, the diff's
// verdicts equal a plain comparison and the template built on top of it
// equals the from-scratch build. out is derived from old's own output so
// that every case occurs: unchanged, changed, new and dropped recipients,
// Add owners that are new or fall out of use, a reshuffled interleaving,
// an empty out and no old at all. One worker serves every pair, so stale
// scratch would show.
func TestFreezeMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	w := new(worker)
	id := func(pool int) ident.ID { return ident.ID(1 + rng.Intn(pool)) }
	msg := func(to ident.ID) Message {
		return Message{
			To:   ref.Virtual(to, rng.Intn(3)),
			Kind: graph.Kind(rng.Intn(3)),
			Add:  ref.Virtual(id(40), rng.Intn(3)),
		}
	}
	reused, fresh := 0, 0
	for iter := 0; iter < 20000; iter++ {
		var out0 []Message
		for range rng.Intn(30) {
			out0 = append(out0, msg(id(8)))
		}
		var old []*contrib
		if rng.Intn(8) > 0 {
			old = freezeScratch(out0)
		}
		var out []Message
		switch rng.Intn(8) {
		case 0: // unchanged
			out = slices.Clone(out0)
		case 1: // empty
		case 2: // same per-recipient sequences, another interleaving
			queues := map[ident.ID][]Message{}
			var owners []ident.ID
			for _, m := range out0 {
				if queues[m.To.Owner()] == nil {
					owners = append(owners, m.To.Owner())
				}
				queues[m.To.Owner()] = append(queues[m.To.Owner()], m)
			}
			for len(owners) > 0 {
				k := rng.Intn(len(owners))
				q := queues[owners[k]]
				out = append(out, q[0])
				if queues[owners[k]] = q[1:]; len(q) == 1 {
					owners = slices.Delete(owners, k, k+1)
				}
			}
		default:
			drop := id(8) // a recipient that disappears
			for _, m := range out0 {
				switch r := rng.Intn(20); {
				case m.To.Owner() == drop && rng.Intn(2) == 0:
				case r == 0: // dropped message
				case r == 1: // new Add owner
					m.Add = ref.Virtual(ident.ID(100+rng.Intn(5)), m.Add.Level())
					out = append(out, m)
				case r == 2:
					m.Add = ref.Virtual(m.Add.Owner(), m.Add.Level()+1)
					out = append(out, m)
				default:
					out = append(out, m)
				}
				if rng.Intn(15) == 0 {
					out = append(out, msg(id(12))) // possibly a new recipient
				}
			}
		}
		for _, c := range checkFreeze(t, old, out, w) {
			if c == findContrib(old, c.owner()) {
				reused++
			} else {
				fresh++
			}
		}
	}
	// Both ways to a contribution are exercised.
	if reused < 1000 || fresh < 1000 {
		t.Fatalf("contributions reused %d times, built %d times", reused, fresh)
	}
}

// stableFlowNet builds a small line network and runs it to quiescence.
func stableFlowNet(t *testing.T, n int, cfg Config) (*Network, []ident.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ids := make([]ident.ID, 0, n)
	seen := map[ident.ID]bool{}
	for len(ids) < n {
		id := ident.ID(rng.Uint64() | 1)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	nw := NewNetwork(cfg)
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < n; i++ {
		nw.SeedEdge(ref.Real(ids[i-1]), ref.Real(ids[i]), graph.Unmarked)
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		t.Fatal("network did not stabilize")
	}
	return nw, ids
}

// TestInPlaceTemplateWriteDivergesFromReference: contributions are
// immutable by construction (buckets are replaced, never edited). The
// reference's messages are private copies, so a write into a live
// contribution — which silently edits the standing bucket that shares
// it — must fail the comparison within one delivery; the same wake
// without the write passes.
func TestInPlaceTemplateWriteDivergesFromReference(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		nw, _ := seedLine(8, 7, Config{Workers: 2})
		l := NewLockstep(nw)
		settleLockstep(t, l)
		var victim *RealNode
		for _, n := range nw.pt.nodes {
			if n != nil && len(n.lastFlow) > 0 && n.lastFlow[0].count() > 0 {
				victim = n
				break
			}
		}
		if victim == nil {
			t.Fatal("no peer with a standing flow at quiescence")
		}
		c := victim.lastFlow[0]
		if mutate {
			c.recs()[0].meta ^= 1 // the forbidden in-place write
		}
		nw.Wake(c.owner()) // the recipient delivers the contribution again
		if err := l.Step(); (err != nil) != mutate {
			t.Fatalf("mutate=%v: comparison with the reference returned %v", mutate, err)
		}
	}
}

// TestFlowTallyMatchesRecount: after stabilization and churn, the
// engine's incremental flow accounting must equal a from-scratch walk
// over every lastFlow and bucket.
func TestFlowTallyMatchesRecount(t *testing.T) {
	nw, ids := stableFlowNet(t, 12, Config{Workers: 2})
	if err := nw.Fail(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := nw.Leave(ids[7]); err != nil {
		t.Fatal(err)
	}
	if err := nw.Join(ident.ID(0x1234567), ids[0]); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}

	CheckStandingFlow(t, nw, "after churn")
	live := map[*contrib]bool{}
	resident, shared, unique := 0, 0, 0
	for _, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		resident += cap(n.lastFlow) * ptrBytes
		for _, c := range n.lastFlow {
			live[c] = true
		}
		for _, b := range n.in {
			if b.private {
				live[b.c] = true
				unique += b.c.count() * msgBytes
			} else {
				shared += b.c.count() * msgBytes
			}
		}
	}
	for c := range live {
		resident += c.footprint()
	}
	if nw.flow.contribs != len(live) {
		t.Errorf("live contributions %d, tally %d", len(live), nw.flow.contribs)
	}
	if nw.flow.residentBytes != resident {
		t.Errorf("resident bytes %d, tally %d", resident, nw.flow.residentBytes)
	}
	if nw.flow.sharedBytes != shared || nw.flow.uniqueBytes != unique {
		t.Errorf("shared/unique bytes %d/%d, tally %d/%d", shared, unique, nw.flow.sharedBytes, nw.flow.uniqueBytes)
	}
	if nw.flow.installsShared == 0 || nw.flow.installsCopied != 0 {
		t.Errorf("installs shared/copied = %d/%d, want all shared", nw.flow.installsShared, nw.flow.installsCopied)
	}
	// The gauges mirror the tally after every batch and churn op.
	if got := nw.met.FlowContribs.Value(); got != int64(len(live)) {
		t.Errorf("FlowContribs gauge %d, live %d", got, len(live))
	}
	if got := nw.met.FlowResidentBytes.Value(); got != int64(resident) {
		t.Errorf("FlowResidentBytes gauge %d, recount %d", got, resident)
	}
}

// TestPackedMessageRoundTrip: every standing message reconstitutes
// bit-identically from the packed form at quiescence (delivery reads go
// through Record.Message, so the equivalence suite exercises this indirectly;
// this pins it directly against the sender's regenerated output).
func TestPackedMessageRoundTrip(t *testing.T) {
	nw, _ := stableFlowNet(t, 10, Config{Workers: 1})
	checked := 0
	for _, n := range nw.pt.nodes {
		if n == nil || n.lastFlow == nil {
			continue
		}
		clone := n.clone()
		nw.deliver(clone)
		var w worker
		nw.purge(clone, &w)
		nw.runRules(clone, &w)
		got := sortedMessages(appendFlow(nil, n.lastFlow))
		want := sortedMessages(w.out)
		if len(got) != len(want) {
			t.Fatalf("peer %s: template carries %d messages, replay produced %d", n.id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("peer %s: packed round-trip mismatch: %+v != %+v", n.id, got[i], want[i])
			}
		}
		checked += len(got)
	}
	if checked == 0 {
		t.Fatal("no standing messages checked")
	}
}
