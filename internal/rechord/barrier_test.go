package rechord

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ident"
)

// workPathAllocBudget bounds the mallocs one frozen template may cost on
// a warm network: the template itself (four objects, or three when it
// reuses its predecessor's symbol table) and growth of the peer's own
// sets, buckets and index entries — 3.9 measured. Rule scratch, the
// output buffer, the freeze scratch and the barrier payload are
// worker-owned and must not show up here at all. The unit is the
// template, not the activation: a run that changes no output freezes
// nothing and allocates nothing, so cutting such runs must not read as a
// regression.
const workPathAllocBudget = 8

// TestWorkPathSteadyAllocs pins the allocation discipline of the path
// that does the work: after a warm-up repair, joining a peer into a
// stable n=256 network and running to the fixed point stays under
// workPathAllocBudget mallocs per template built, serial and pooled.
func TestWorkPathSteadyAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nw, _ := idealSeededNet(Config{Workers: workers}, 256)
			rng := rand.New(rand.NewSource(42))
			var acts, built uint64
			joinAndSettle := func() {
				peers := nw.Peers()
				if err := nw.Join(ident.ID(rng.Uint64()|1), peers[rng.Intn(len(peers))]); err != nil {
					t.Fatal(err)
				}
				a0, b0 := nw.met.Activated.Value(), nw.flow.births
				for r := 0; !nw.Quiescent(); r++ {
					if r > 20000 {
						t.Fatal("no fixed point")
					}
					nw.Step()
				}
				acts, built = nw.met.Activated.Value()-a0, uint64(nw.flow.births-b0)
			}
			joinAndSettle() // settle the seeded state and absorb one join: the warm-up cycle
			var measuredActs, measuredBuilt uint64
			const runs = 5
			calls := 0
			avg := testing.AllocsPerRun(runs, func() {
				joinAndSettle()
				if calls++; calls > 1 { // AllocsPerRun's own first call is unmeasured
					measuredActs += acts
					measuredBuilt += built
				}
			})
			perTpl := avg * runs / float64(measuredBuilt)
			t.Logf("%.0f mallocs per join+stabilize, %d activations and %d templates each on average: %.2f per template",
				avg, measuredActs/runs, measuredBuilt/runs, perTpl)
			if perTpl > workPathAllocBudget {
				t.Errorf("work path allocates %.2f objects per template, budget %d", perTpl, workPathAllocBudget)
			}
		})
	}
}
