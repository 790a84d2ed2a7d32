package rechord

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// White-box regressions for the shared flow-template storage: the
// immutability the sharing rests on, the refcount/tally bookkeeping, and
// the packed round-trip.

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

// TestInPlaceTemplateWriteDivergesFromReference: templates are immutable
// by construction (buckets are replaced, never edited). The reference's
// messages are private copies, so a write into a live shared template —
// which silently edits the standing bucket of every recipient aliasing
// it — must fail the comparison within one delivery; the same wake
// without the write passes.
func TestInPlaceTemplateWriteDivergesFromReference(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		nw, _ := seedLine(8, 7, Config{Workers: 2})
		l := NewLockstep(nw)
		settleLockstep(t, l)
		var victim *RealNode
		for _, n := range nw.pt.nodes {
			if n != nil && n.lastFlow != nil && len(n.lastFlow.packed) > 0 {
				victim = n
				break
			}
		}
		if victim == nil {
			t.Fatal("no peer with a standing flow at quiescence")
		}
		if mutate {
			victim.lastFlow.packed[0].meta ^= 1 // the forbidden in-place write
		}
		nw.Wake(victim.lastFlow.spans[0].owner) // the recipient delivers the span again
		if err := l.Step(); (err != nil) != mutate {
			t.Fatalf("mutate=%v: comparison with the reference returned %v", mutate, err)
		}
	}
}

// TestFlowTallyMatchesRecount: after stabilization and churn, the
// engine's incremental flow accounting must equal a from-scratch walk
// over every live template and bucket.
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

	live := map[*flowTemplate]bool{}
	shared, unique := 0, 0
	for _, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		if n.lastFlow != nil {
			live[n.lastFlow] = true
		}
		for _, b := range n.in {
			live[b.flow] = true
			if b.flow.private {
				unique += b.flow.spanLen(b.span) * msgBytes
			} else {
				shared += b.flow.spanLen(b.span) * msgBytes
			}
		}
	}
	resident := 0
	for tpl := range live {
		resident += tpl.footprint()
	}
	if got := nw.flow.births - nw.flow.deaths; got != len(live) {
		t.Errorf("live templates %d, tally %d", len(live), got)
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
	if got := nw.met.FlowTemplates.Value(); got != int64(len(live)) {
		t.Errorf("FlowTemplates gauge %d, live %d", got, len(live))
	}
	if got := nw.met.FlowResidentBytes.Value(); got != int64(resident) {
		t.Errorf("FlowResidentBytes gauge %d, recount %d", got, resident)
	}
}

// TestPackedMessageRoundTrip: every standing message reconstitutes
// bit-identically from the packed form at quiescence (delivery reads go
// through msgAt, so the equivalence suite exercises this indirectly;
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
		got := sortedMessages(n.lastFlow.appendAll(nil))
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
