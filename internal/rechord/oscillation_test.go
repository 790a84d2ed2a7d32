package rechord

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ident"
)

// TestSeed4096FlowWave is a skipped-by-default diagnostic that
// characterizes the ROADMAP-noted quirk: the ideal-seeded id set drawn
// from seed 4096 (idealSeededNet's rng.Uint64 stream, NOT
// topogen.RandomIDs — the two differ, which is why the topogen suites
// never see this) takes ~2000 rounds to quiesce even though it is
// seeded with the exact ideal topology. The note called it a
// "persistent 2-peer oscillation"; instrumenting it shows something
// more interesting, and less alarming:
//
//   - The *views* are at the rules' fixed point from round 1. The
//     global state fingerprint — which hashes every virtual node's
//     edge sets — never changes across the entire run. No topology
//     oscillation exists, so nothing contradicts the paper's
//     uniqueness proof.
//   - What takes 2078 rounds to settle is the *message* layer: a
//     flow-level wave. Ideal seeding installs edges, not standing
//     flows, so each peer's first activation builds its standing
//     output from scratch; for this id set the resulting deliveries
//     keep re-waking exactly one next peer, whose regenerated flow
//     differs from its previous one, waking the next — a disturbance
//     of frontier width ~2 (one peer rewriting its flow, one
//     re-settling) that travels peer-to-peer down the identifier
//     space for two thousand rounds before dying out.
//
// The wave is deterministic and engine-independent: the serial,
// sharded, and deep-copy-flow engines all quiesce at exactly the same
// round (the lockstep suites pin this), and the round count is
// identical before and after the shared-flow storage (DESIGN §2).
// Only the round-capped harnesses ever mistook it for a persistent
// oscillation — and the benchmarks that use ideal seeding measure
// fixed round windows rather than run-to-quiescence so that this tail
// stays out of their variance either way.
//
// Run with RECHORD_OSCILLATION_DIAG=1 (and a -timeout generous enough
// for ~2100 n=4096 rounds, ~5 minutes) to reproduce and measure it.
func TestSeed4096FlowWave(t *testing.T) {
	if os.Getenv("RECHORD_OSCILLATION_DIAG") == "" {
		t.Skip("diagnostic for the seed-4096 flow-settling wave; set RECHORD_OSCILLATION_DIAG=1 to run")
	}
	nw, _ := idealSeededNet(Config{Workers: 4}, 4096)

	nw.Step()
	fixed := nw.StateFingerprint(nil)

	const maxRounds = 20000
	visited := map[ident.ID]bool{}
	maxWidth, widthGT2Until := 0, 0
	var lastActive []ident.ID
	r := 1
	for ; r < maxRounds && !nw.Quiescent(); r++ {
		width := 0
		lastActive = lastActive[:0]
		for _, slot := range nw.frontier {
			if n := nw.pt.nodes[slot]; n != nil && n.dirty {
				width++
				visited[n.id] = true
				lastActive = append(lastActive, n.id)
			}
		}
		if width > maxWidth {
			maxWidth = width
		}
		if width > 2 {
			widthGT2Until = r
		}
		nw.Step()
		if fp := nw.StateFingerprint(nil); fp != fixed {
			t.Fatalf("view fingerprint moved at round %d: %x vs %x — the views are supposed to be at the fixed point throughout", r+1, fp, fixed)
		}
	}
	t.Logf("quiescent after %d rounds; wave visited %d distinct peers, max frontier width %d, width>2 last seen at round %d",
		r, len(visited), maxWidth, widthGT2Until)

	if !nw.Quiescent() {
		t.Fatalf("not quiescent after %d rounds — the wave is no longer a transient; re-characterize (last active: %v)", maxRounds, lastActive)
	}
	// The settling tail is a *traveling* disturbance, not a stationary
	// pair: it marches through a large fraction of the id space …
	if len(visited) < 50 {
		t.Errorf("wave visited only %d peers — expected a traveling disturbance, not a localized one", len(visited))
	}
	// … at the narrow steady width that made it look like a "2-peer
	// oscillation" in round-capped runs.
	if widthGT2Until > r/4 {
		t.Errorf("frontier width stayed >2 until round %d of %d — not the narrow wave this documents", widthGT2Until, r)
	}
	// The exact extinction round is deterministic; the lockstep suites
	// guarantee it is engine-independent. If a legitimate protocol
	// change moves it, update this constant and DESIGN §2.
	if r != 2078 {
		t.Errorf("wave died at round %d, previously 2078 — deterministic tail changed; update DESIGN §2 if intentional", r)
	}
	for _, id := range nw.Peers() {
		if !nw.LocallyStable(id) {
			t.Errorf("quiescent network: peer %v is not locally stable", id)
			break
		}
	}
}

// dumpPeer renders one peer's full protocol state: per-level virtual
// node edge sets and the standing output flow. Kept for offline use
// from this diagnostic.
func dumpPeer(nw *Network, id ident.ID) string {
	n := nw.pt.node(id)
	if n == nil {
		return fmt.Sprintf("peer %v: departed", id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "peer %v dirty=%v\n", id, n.dirty)
	for lvl, v := range n.vnodes {
		if v == nil {
			continue
		}
		fmt.Fprintf(&b, "  v%d: Nu=%v Nr=%v", lvl, v.Nu.Slice(), v.Nr.Slice())
		if v.HasRL {
			fmt.Fprintf(&b, " rl=%v", v.RL)
		}
		if v.HasRR {
			fmt.Fprintf(&b, " rr=%v", v.RR)
		}
		b.WriteByte('\n')
	}
	if out := appendFlow(nil, n.lastFlow); len(out) > 0 {
		fmt.Fprintf(&b, "  out (%d msgs):", len(out))
		for _, m := range out {
			fmt.Fprintf(&b, " {to %v kind %v add %v}", m.To, m.Kind, m.Add)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
