package rechord

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ident"
)

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
