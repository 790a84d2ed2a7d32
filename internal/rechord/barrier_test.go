package rechord

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ident"
)

// The commit phase's ownership partition is what makes the sharded
// barrier safe: worker w may only write buckets at slots with
// slot % commitW == w and dep-index shards with depShardOf(id) %
// commitW == w. Under ParanoidSettle, commitBucketOp and commitDepDelta
// re-derive the owner and panic on a cross-shard write. These tests
// drive the audit directly: the in-band path can never trip it (the
// selection filter and the audit are the same predicate), so the panic
// is provoked by calling the commit helpers with a mismatched worker
// id, exactly what a future regression in the partitioning would do.

func auditNet(t *testing.T) *Network {
	t.Helper()
	nw := NewNetwork(Config{Workers: 2, ParanoidSettle: true})
	nw.AddPeer(ident.ID(0x11)) // slot 0
	nw.AddPeer(ident.ID(0x22)) // slot 1
	nw.commitW = 2
	return nw
}

func wantPanic(t *testing.T, fragment string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", fragment)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, fragment) {
			t.Fatalf("panic %v does not mention %q", r, fragment)
		}
	}()
	f()
}

func TestCommitShardAuditBucket(t *testing.T) {
	nw := auditNet(t)
	sender := nw.pt.nodes[0].h()
	var sh commitShard
	// Slot 1 belongs to commit worker 1; worker 0 writing it must trip
	// the audit before any state is touched.
	op := bucketOp{dstSlot: 1, span: -1, wake: true}
	wantPanic(t, "cross-shard bucket write", func() {
		nw.commitBucketOp(0, sender, nil, &op, &sh)
	})
	// The owning worker passes: a delete op for a (non-existent)
	// bucket is a no-op that still marks the recipient dirty. Fresh
	// peers start dirty (AddPeer), so clear the flag to observe the
	// wake.
	nw.pt.nodes[1].dirty = false
	nw.commitBucketOp(1, sender, nil, &op, &sh)
	if len(sh.frontier) != 1 || sh.frontier[0] != 1 {
		t.Fatalf("owning worker did not mark the recipient: frontier=%v", sh.frontier)
	}
}

func TestCommitShardAuditDep(t *testing.T) {
	nw := auditNet(t)
	// Find an identifier whose index shard is NOT owned by worker 0.
	id := ident.ID(1)
	for depShardOf(id)%2 == 0 {
		id += 2
	}
	wantPanic(t, "cross-shard dep write", func() {
		nw.commitDepDelta(0, depDelta{id: id, slot: 0, k: 1})
	})
	// The owning worker applies the delta.
	w := int(depShardOf(id)) % 2
	nw.commitDepDelta(w, depDelta{id: id, slot: 0, k: 1})
	deps := nw.deps.dependents(id)
	if len(deps) != 1 || deps[0].peer != 0 || deps[0].cnt != 1 {
		t.Fatalf("owning worker's delta not applied: %v", deps)
	}
	nw.commitDepDelta(w, depDelta{id: id, slot: 0, k: -1})
	if got := nw.deps.dependents(id); len(got) != 0 {
		t.Fatalf("negative delta not applied: %v", got)
	}
}

// workPathAllocBudget bounds the mallocs one activation may cost on a
// warm network: the frozen template of a changed output (four objects)
// and growth of the peer's own sets, buckets and index entries. Rule
// scratch, the output buffer, the freeze scratch and the barrier payload
// are worker-owned and must not show up here at all; before they were,
// the same measurement read 116 per activation (now 2.6).
const workPathAllocBudget = 6

// TestWorkPathSteadyAllocs pins the allocation discipline of the path
// that does the work: after a warm-up repair, joining a peer into a
// stable n=256 network and running to the fixed point stays under
// workPathAllocBudget mallocs per activation, serial and pooled.
func TestWorkPathSteadyAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nw, _ := idealSeededNet(Config{Workers: workers}, 256)
			rng := rand.New(rand.NewSource(42))
			var acts uint64
			joinAndSettle := func() {
				peers := nw.Peers()
				if err := nw.Join(ident.ID(rng.Uint64()|1), peers[rng.Intn(len(peers))]); err != nil {
					t.Fatal(err)
				}
				before := nw.met.Activated.Value()
				for r := 0; !nw.Quiescent(); r++ {
					if r > 20000 {
						t.Fatal("no fixed point")
					}
					nw.Step()
				}
				acts = nw.met.Activated.Value() - before
			}
			joinAndSettle() // settle the seeded state and absorb one join: the warm-up cycle
			var measured uint64
			const runs = 5
			calls := 0
			avg := testing.AllocsPerRun(runs, func() {
				joinAndSettle()
				if calls++; calls > 1 { // AllocsPerRun's own first call is unmeasured
					measured += acts
				}
			})
			perAct := avg * runs / float64(measured)
			t.Logf("%.0f mallocs per join+stabilize, %d activations each on average: %.2f per activation",
				avg, measured/runs, perAct)
			if perAct > workPathAllocBudget {
				t.Errorf("work path allocates %.2f objects per activation, budget %d", perAct, workPathAllocBudget)
			}
		})
	}
}
