package rechord

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// White-box regressions for the asynchronous scheduler's churn
// handling. The original AsyncRunner silently dropped any message
// addressed to a departed peer and bypassed removePeer's bookkeeping
// entirely; the event-driven runner must match the synchronous
// engine's semantics: a departed peer's standing flow arrives exactly
// once more as one-shots, in-flight contributions from a departed (or
// re-incarnated) sender arrive as one-shots instead of resurrecting a
// standing bucket nobody will ever clean, and a peer re-joining under
// a still-targeted identifier sees the senders' repeating flow again.

// asyncBucketInvariant checks that every standing bucket belongs to a
// live sender: a bucket from a departed peer would replay its stale
// flow forever, since only the sender's own runs can replace it.
func asyncBucketInvariant(t *testing.T, nw *Network) {
	t.Helper()
	for _, dst := range nw.pt.nodes {
		if dst == nil {
			continue
		}
		for _, b := range dst.in {
			if nw.pt.byHandle(b.sender) == nil {
				t.Fatalf("peer %s holds a standing bucket from a departed sender incarnation (slot %d gen %d)",
					dst.id, b.sender.slot(), b.sender.gen())
			}
		}
	}
}

// buildAsyncLine seeds a weakly connected line of n random peers.
func buildAsyncLine(n int, seed int64) (*Network, []ident.ID, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]ident.ID, 0, n)
	seen := map[ident.ID]bool{}
	for len(ids) < n {
		id := ident.ID(rng.Uint64() | 1)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	nw := NewNetwork(Config{Workers: 1})
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < n; i++ {
		nw.SeedEdge(ref.Real(ids[i-1]), ref.Real(ids[i]), graph.Unmarked)
	}
	return nw, ids, rng
}

// TestAsyncDepartedPeerChurn fails and re-joins peers while delayed
// contributions are in flight and demands (a) re-convergence to the
// exact ideal state for the surviving membership and (b) no standing
// bucket left behind from any dead sender incarnation. The churn is
// applied from the settled state: the paper's convergence guarantee
// (and hence the test's expectation) requires the knowledge graph to
// stay weakly connected, which a failure mid-convergence of a sparse
// topology can violate for any execution model.
func TestAsyncDepartedPeerChurn(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		nw, ids, rng := buildAsyncLine(12, seed)
		a := NewAsyncRunner(nw, AsyncConfig{ActivationProb: 0.5, Delay: UniformDelay{Max: 4}}, rng)
		if _, ok := a.RunUntilLegal(ComputeIdeal(ids), 60000, 8); !ok {
			t.Fatalf("seed=%d: initial convergence failed", seed)
		}

		// Crash one peer; while its repair is in flight, remove another
		// gracefully and re-join a fresh peer under the crashed peer's
		// identifier — the new incarnation must not inherit the old
		// one's in-flight output as standing state.
		victim := ids[4]
		if err := nw.Fail(victim); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			a.Step()
		}
		if err := nw.Leave(ids[7]); err != nil {
			t.Fatal(err)
		}
		if err := nw.Join(victim, ids[0]); err != nil {
			t.Fatal(err)
		}

		idl := ComputeIdeal(nw.Peers())
		steps, ok := a.RunUntilLegal(idl, 60000, 8)
		if !ok {
			t.Fatalf("seed=%d: async churn did not restabilize in %d steps", seed, steps)
		}
		// Drain the remaining in-flight events so every channel settled.
		for !a.Quiescent() {
			a.Step()
		}
		asyncBucketInvariant(t, nw)
		CheckDepIndex(t, nw, fmt.Sprintf("seed=%d after churn", seed))
		if err := idl.Matches(nw); err != nil {
			t.Fatalf("seed=%d: wrong state after churn: %v", seed, err)
		}
	}
}

// TestAsyncRemovePeerFinalOutput pins the final-output semantics: when
// a peer departs, its standing flow is delivered exactly once more as
// one-shots (the synchronous removePeer contract), and the recipients
// are woken to consume it — the messages are not silently dropped.
func TestAsyncRemovePeerFinalOutput(t *testing.T) {
	nw, ids, rng := buildAsyncLine(8, 99)
	a := NewAsyncRunner(nw, AsyncConfig{ActivationProb: 1}, rng)
	for !a.Quiescent() {
		a.Step()
	}
	CheckDepIndex(t, nw, "settled")
	// At the fixed point every peer holds standing buckets. Pick a
	// recipient of the victim's flow before failing it.
	victim := ids[3]
	vicH := nw.node(victim).h()
	var recipient ident.ID
	found := false
	for _, dst := range nw.pt.nodes {
		// A peer can hold a standing bucket from itself (messages to its
		// own virtual nodes); the victim is no recipient of its own
		// final output.
		if dst != nil && dst.id != victim {
			if bi := dst.findBucket(vicH); bi >= 0 && dst.in[bi].c.count() > 0 {
				recipient, found = dst.id, true
				break
			}
		}
	}
	if !found {
		t.Fatalf("victim %s has no standing flow at the fixed point", victim)
	}
	rcp := nw.node(recipient)
	rb := rcp.in[rcp.findBucket(vicH)]
	want := rb.c.count()
	if err := nw.Fail(victim); err != nil {
		t.Fatal(err)
	}
	dst := nw.node(recipient)
	if dst.findBucket(vicH) >= 0 {
		t.Fatal("departed sender's bucket not removed")
	}
	if len(dst.inbox) < want {
		t.Fatalf("final output not delivered as one-shots: inbox %d, want >= %d", len(dst.inbox), want)
	}
	if !dst.dirty {
		t.Fatal("recipient of the final output was not woken")
	}
	idl := ComputeIdeal(nw.Peers())
	if steps, ok := a.RunUntilLegal(idl, 10000, 4); !ok {
		t.Fatalf("did not restabilize after failure in %d steps", steps)
	}
	for !a.Quiescent() {
		a.Step()
	}
	asyncBucketInvariant(t, nw)
	CheckDepIndex(t, nw, "after failure")
}

// TestAsyncStaleFrontierCompaction: a long async run with repeated
// wake/settle cycles must not grow the frontier list without bound
// (the synchronous engine truncates it each round; the runner owns its
// compaction instead).
func TestAsyncStaleFrontierCompaction(t *testing.T) {
	nw, ids, rng := buildAsyncLine(10, 7)
	a := NewAsyncRunner(nw, AsyncConfig{ActivationProb: 0.5, Delay: UniformDelay{Max: 2}}, rng)
	for !a.Quiescent() {
		a.Step()
	}
	for i := 0; i < 200; i++ {
		nw.Wake(ids[i%len(ids)])
		for !a.Quiescent() {
			a.Step()
		}
		CheckDepIndex(t, nw, fmt.Sprintf("cycle %d", i))
	}
	if got, limit := len(nw.frontier), 4*nw.NumPeers()+65; got > limit {
		t.Fatalf("frontier grew to %d entries (> %d) across wake/settle cycles", got, limit)
	}
}
