package wire

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rechord"
)

func testConfig() rechord.Config {
	return rechord.Config{Workers: 1}
}

// gateScript is the equivalence-gate run description shared by the
// chan-cluster test here and the multi-process TCP test in
// cmd/rechord-node: a 20-peer random topology with a join, a graceful
// leave, an abrupt failure and a second join mid-stabilization.
const gateScript = `rechord-wire-script v1
topo random 20 1701
maxrounds 2000
op 3 join 5a5a000000000001 contact %CONTACT%
op 6 leave %LEAVE%
op 9 fail %FAIL%
op 12 join a5a5000000000002 contact 5a5a000000000001
`

// GateScript materializes gateScript: the leave/fail/contact targets
// are drawn from the generated membership, so the text stays valid for
// any seed. cmd/rechord-node's multi-process test builds its script by
// the same recipe.
func GateScript(t *testing.T) *Script {
	t.Helper()
	base, err := ParseScript(strings.NewReader(
		"rechord-wire-script v1\ntopo random 20 1701\n"))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := base.Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := nw.Peers()
	text := strings.NewReplacer(
		"%CONTACT%", ids[0].Hex(),
		"%LEAVE%", ids[3].Hex(),
		"%FAIL%", ids[7].Hex(),
	).Replace(gateScript)
	s, err := ParseScript(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runChanCluster executes the script as a procs-node star cluster over
// the in-process transport and returns the seed's combined result.
func runChanCluster(t testing.TB, s *Script, procs int, delay rechord.DelayModel, met *obs.WireMetrics) *Result {
	t.Helper()
	cn := NewChanNet(delay, s.Seed, met)
	ln, err := cn.Listen("seed")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	errs := make([]error, procs)
	results := make([]*Result, procs)
	for rank := 1; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := cn.Dial("seed")
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			nd := &Node{Rank: rank, Procs: procs, Script: s, Config: testConfig()}
			results[rank], errs[rank] = nd.RunWorker(c)
		}(rank)
	}
	seed := &Node{Rank: 0, Procs: procs, Script: s, Config: testConfig()}
	res, err := seed.RunSeed(ln)
	wg.Wait()
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	for rank := 1; rank < procs; rank++ {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
	}
	return res
}

// runAsync executes the script under the asynchronous adversary:
// script op rounds are treated as async step stamps (a different but
// fair schedule), then the runner steps to quiescence. Convergence to
// the same fingerprint is the paper's uniqueness theorem at work.
func runAsync(t *testing.T, s *Script) uint64 {
	t.Helper()
	nw, err := s.Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ar := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{
		ActivationProb: 0.7,
		Delay:          rechord.UniformDelay{Max: 3},
	}, rand.New(rand.NewSource(s.Seed+1)))
	next := 0
	budget := int(float64(s.MaxRounds) * ar.StepBudgetScale())
	for step := 1; ; step++ {
		if step > budget {
			t.Fatalf("async leg did not converge in %d steps", budget)
		}
		if next, err = s.applyDue(nw, next, step); err != nil {
			t.Fatalf("async op %d: %v", next, err)
		}
		ar.Step()
		if next == len(s.Ops) && ar.Quiescent() {
			return nw.StateFingerprint(nil)
		}
	}
}

// TestChanClusterMatchesMonolith is the sim-vs-wire equivalence gate's
// in-process legs: the same scripted run through (a) the monolithic
// round engine, (b) the asynchronous adversary, and (c) a 4-node wire
// cluster over the chan transport (every frame through the real codec)
// must converge to the same state fingerprint. The TCP leg of the gate
// — the same script across real OS processes — lives in
// cmd/rechord-node's TestTCPClusterEquivalence.
func TestChanClusterMatchesMonolith(t *testing.T) {
	s := GateScript(t)

	monoFP, monoRounds, err := s.RunMonolith(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("monolith: fingerprint=%016x rounds=%d", monoFP, monoRounds)

	var met obs.WireMetrics
	res := runChanCluster(t, s, 4, nil, &met)
	if res.Fingerprint != monoFP {
		t.Fatalf("chan cluster fingerprint %016x != monolith %016x", res.Fingerprint, monoFP)
	}
	if res.Peers != 20 { // 20 initial - leave - fail + 2 joins = 20
		t.Fatalf("chan cluster peers = %d, want 20", res.Peers)
	}
	if met.FramesSent.Value() == 0 || met.BucketUpdates.Value() == 0 || met.Publishes.Value() == 0 {
		t.Fatalf("wire metrics did not move: %+v", met.Snapshot())
	}

	if asyncFP := runAsync(t, s); asyncFP != monoFP {
		t.Fatalf("async fingerprint %016x != monolith %016x", asyncFP, monoFP)
	}
}

// TestChanClusterDelayInvariance pins the delay-model statement: under
// the lockstep barrier a simulated network delay contributes latency
// accounting, never semantics.
func TestChanClusterDelayInvariance(t *testing.T) {
	s := GateScript(t)
	base := runChanCluster(t, s, 3, nil, nil)

	delayed := runChanClusterWithNet(t, s, 3, rechord.ParetoDelay{Alpha: 1.5, Max: 64})
	if delayed.res.Fingerprint != base.Fingerprint {
		t.Fatalf("delay model changed the outcome: %016x != %016x",
			delayed.res.Fingerprint, base.Fingerprint)
	}
	total, frames := delayed.net.SimLatency()
	if frames == 0 || total < frames {
		t.Fatalf("delay accounting did not accumulate: total=%d frames=%d", total, frames)
	}
}

type clusterRun struct {
	res *Result
	net *ChanNet
}

func runChanClusterWithNet(t *testing.T, s *Script, procs int, delay rechord.DelayModel) clusterRun {
	t.Helper()
	cn := NewChanNet(delay, s.Seed, nil)
	ln, err := cn.Listen("seed")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	for rank := 1; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := cn.Dial("seed")
			if err != nil {
				t.Errorf("rank %d dial: %v", rank, err)
				return
			}
			defer c.Close()
			nd := &Node{Rank: rank, Procs: procs, Script: s, Config: testConfig()}
			if _, err := nd.RunWorker(c); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}(rank)
	}
	seed := &Node{Rank: 0, Procs: procs, Script: s, Config: testConfig()}
	res, err := seed.RunSeed(ln)
	wg.Wait()
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	return clusterRun{res: res, net: cn}
}

// TestSeedErrorReleasesWorkers pins the close-on-error contract: when
// the seed gives up (here: rank 2 disagrees about the cluster size),
// it closes every connection it accepted, so a healthy worker blocked
// on the seed returns an error instead of hanging.
func TestSeedErrorReleasesWorkers(t *testing.T) {
	s := GateScript(t)
	cn := NewChanNet(nil, 1, nil)
	ln, err := cn.Listen("seed")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Dial in rank order (Dial enqueues synchronously), so the seed has
	// accepted the healthy rank 1 before it meets rank 2's bad hello.
	conns := make([]Conn, 3)
	for rank := 1; rank < 3; rank++ {
		if conns[rank], err = cn.Dial("seed"); err != nil {
			t.Fatal(err)
		}
		defer conns[rank].Close()
	}
	workerErr := make([]chan error, 3)
	for rank, procs := range map[int]int{1: 3, 2: 99} {
		workerErr[rank] = make(chan error, 1)
		go func(rank, procs int) {
			nd := &Node{Rank: rank, Procs: procs, Script: s, Config: testConfig()}
			_, err := nd.RunWorker(conns[rank])
			workerErr[rank] <- err
		}(rank, procs)
	}
	seed := &Node{Rank: 0, Procs: 3, Script: s, Config: testConfig()}
	if _, err := seed.RunSeed(ln); err == nil || !strings.Contains(err.Error(), "procs=99") {
		t.Fatalf("seed error = %v, want the procs mismatch", err)
	}
	for rank := 1; rank < 3; rank++ {
		select {
		case err := <-workerErr[rank]:
			if err == nil {
				t.Fatalf("rank %d returned no error from a seed that gave up", rank)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rank %d still blocked 5s after the seed returned", rank)
		}
	}
}

func TestNodeValidation(t *testing.T) {
	s := &Script{Topology: "random", N: 4, Seed: 1, MaxRounds: 10}
	for _, nd := range []*Node{
		{Rank: 0, Procs: 0, Script: s},
		{Rank: 2, Procs: 2, Script: s},
		{Rank: -1, Procs: 2, Script: s},
		{Rank: 0, Procs: 2},
	} {
		if _, err := nd.RunSeed(nil); err == nil {
			t.Fatalf("want validation error for %+v", nd)
		}
	}
	nd := &Node{Rank: 1, Procs: 2, Script: s}
	if _, err := nd.RunSeed(nil); err == nil {
		t.Fatal("RunSeed on rank 1 must fail")
	}
}
