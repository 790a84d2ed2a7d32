package rechord

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// White-box regressions for the shared flow-template storage: the
// ParanoidSettle write barrier, the refcount/tally bookkeeping, and the
// packed round-trip.

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

// TestParanoidFlowWriteBarrier: mutating a shared template in place
// must panic at the next settle check of the owning peer. Templates are
// immutable by construction (buckets are replaced, never edited); the
// barrier turns any future violation of that invariant into a loud
// failure instead of silent cross-peer corruption.
func TestParanoidFlowWriteBarrier(t *testing.T) {
	nw, _ := stableFlowNet(t, 8, Config{Workers: 2, ParanoidSettle: true})
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
	victim.lastFlow.packed[0].meta ^= 1 // the forbidden in-place write
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mutated template did not trip the write barrier")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "mutated in place") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	nw.Wake(victim.id)
	nw.Step()
}

// TestFlowTallyMatchesRecount: after stabilization and churn, the
// engine's incremental flow accounting must equal a from-scratch walk
// over every live template and bucket.
func TestFlowTallyMatchesRecount(t *testing.T) {
	for _, deep := range []bool{false, true} {
		nw, ids := stableFlowNet(t, 12, Config{Workers: 2, DeepCopyFlows: deep})
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
			t.Errorf("deep=%v: live templates %d, tally %d", deep, len(live), got)
		}
		if nw.flow.residentBytes != resident {
			t.Errorf("deep=%v: resident bytes %d, tally %d", deep, resident, nw.flow.residentBytes)
		}
		if nw.flow.sharedBytes != shared || nw.flow.uniqueBytes != unique {
			t.Errorf("deep=%v: shared/unique bytes %d/%d, tally %d/%d",
				deep, shared, unique, nw.flow.sharedBytes, nw.flow.uniqueBytes)
		}
		if deep {
			if nw.flow.installsShared != 0 {
				t.Errorf("deep-copy mode recorded %d shared installs", nw.flow.installsShared)
			}
		} else if nw.flow.installsShared == 0 {
			t.Error("shared mode recorded no shared installs")
		}
		// The gauges mirror the tally after every batch and churn op.
		if got := nw.met.FlowTemplates.Value(); got != int64(len(live)) {
			t.Errorf("deep=%v: FlowTemplates gauge %d, live %d", deep, got, len(live))
		}
		if got := nw.met.FlowResidentBytes.Value(); got != int64(resident) {
			t.Errorf("deep=%v: FlowResidentBytes gauge %d, recount %d", deep, got, resident)
		}
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
