// Package compact holds the compact-handle core's scale acceptance
// tests: convergence to the exact oracle topology at n = 131072, two
// doublings past the previous suite ceiling. Two engine layers make
// the rung reachable: the dense slot-addressed state (this package's
// original n=65536 target — the map-keyed layout ran ~2.2x slower
// with ~1.5x the resident state) and the incremental dependency
// machinery (inverted wake index + a settle verdict that costs only the
// active peers' own state), which removed the last two per-barrier
// terms that scaled with n instead of with the frontier. The runs are
// single-core memory-bandwidth-bound (every active round sweeps every
// active peer's standing flow), so the tests live in their own package and
// never crowd the rest of the largescale suite; the multi-minute
// rungs budget-check the binary's deadline (see needBudget) and skip
// when it cannot fit them, so a plain `go test ./...` stays green at
// the go tool's 10-minute default.
package compact

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"math"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/scaletable"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topogen"
)

// needBudget skips the calling test when the binary's deadline cannot
// fit it. A test binary cannot widen its own budget (an earlier
// revision reset the test.timeout flag from TestMain): the go tool
// enforces -timeout from outside the process too, sending SIGQUIT one
// minute past the deadline it injected, so the only honest move is to
// measure the time remaining via t.Deadline and skip rungs that will
// not finish. A plain `go test ./...` therefore passes at the
// 10-minute default with the scale rungs skipped, and an explicit
// generous -timeout (or -timeout=0) unlocks them — that is how the
// full ladder is run by hand or by a scheduled job.
func needBudget(t *testing.T, need time.Duration) {
	t.Helper()
	deadline, ok := t.Deadline()
	if !ok {
		return // -timeout=0: no deadline
	}
	if remain := time.Until(deadline); remain < need {
		t.Skipf("rung needs ~%v of single-core settle work but the test binary's deadline is %v away; rerun with -timeout=150m (or -timeout=0) to include it",
			need, remain.Round(time.Second))
	}
}

// record appends a rung to the SCALE_JSON ladder (no-op unless CI
// exports the variable); a write failure is a test failure so a
// broken artifact pipeline is noticed, not silently published empty.
func record(t *testing.T, e scaletable.Entry) {
	t.Helper()
	if err := scaletable.RecordEnv(e); err != nil {
		t.Errorf("recording scale entry: %v", err)
	}
}

// recordMetrics dumps the rung's full telemetry snapshot to the
// METRICS_JSON artifact (no-op unless CI exports the variable): the
// engine counters and per-phase barrier timings accumulated by the
// settle, plus a lookup-hop histogram from a post-settle sample of
// routed lookups — which is also sanity-checked against the O(log n)
// hop bound the table router guarantees on the stable topology.
func recordMetrics(t *testing.T, label string, nw *rechord.Network, ids []ident.ID, rng *rand.Rand) {
	t.Helper()
	const sample = 256
	cache := routing.NewCache(nw)
	var hops stats.Histogram
	for i := 0; i < sample; i++ {
		from := ids[rng.Intn(len(ids))]
		_, h, err := cache.Resolve(from, ident.ID(rng.Uint64()))
		if err != nil {
			t.Fatalf("sample lookup: %v", err)
		}
		hops.Observe(float64(h))
	}
	logN := math.Log2(float64(len(ids)))
	if mean := hops.Mean(); mean > 4*logN {
		t.Errorf("sampled lookups average %.1f hops at n=%d, not ~log n (%.1f)", mean, len(ids), logN)
	}
	t.Logf("%s: %d sampled lookups, mean %.2f hops (log2 n = %.1f), p99 %.0f",
		label, sample, hops.Mean(), logN, hops.Percentile(99))

	snap := obs.Snapshot{Engine: nw.Obs().Snapshot()}
	snap.Routing.CacheHits, snap.Routing.CacheMisses = cache.Stats()
	snap.Routing.CacheInvalidations = cache.Invalidations()
	snap.Routing.CacheEntries = cache.Len()
	snap.Routing.LookupHops = obs.SummarizeHist(&hops)
	if err := obs.RecordEnv(label, snap); err != nil {
		t.Errorf("recording metrics snapshot: %v", err)
	}
}

// settle builds the pre-stabilized network of n random peers and runs
// it to quiescence, returning the network, ids, and bytes of heap the
// settled network (standing flows included) holds per peer. The rung
// is recorded to the SCALE_JSON ladder on the way out.
func settle(t *testing.T, n int) (*rechord.Network, []ident.ID, float64) {
	t.Helper()
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rng := rand.New(rand.NewSource(int64(n)))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	start := time.Now()
	res, err := sim.RunToStable(context.Background(), nw, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Quiescent() {
		t.Fatal("stable network not quiescent")
	}
	wall := time.Since(start)
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	perPeer := float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n)
	t.Logf("n=%d: settled in %d rounds, %v, %.0f bytes/peer", n, res.Rounds, wall, perPeer)
	record(t, scaletable.Entry{N: n, Model: "sync", Rounds: res.Rounds, WallSeconds: wall.Seconds(), BytesPerPeer: perPeer})
	return nw, ids, perPeer
}

// churnAndReconverge fails and joins a few peers, then demands exact
// re-convergence to the new membership's ideal state. Joiners contact
// the live peer closest to their own identifier — the deployment
// pattern (route to your own id, join there); contacting a random
// far-away peer instead makes integration linear in n (knowledge
// travels hop by hop), which is a property of the protocol, not of
// the engine under test.
func churnAndReconverge(t *testing.T, nw *rechord.Network, ids []ident.ID, rng *rand.Rand) {
	t.Helper()
	n := len(ids)
	for i := 1; i <= 3; i++ {
		if err := nw.Fail(ids[(i*n)/5]); err != nil {
			t.Fatal(err)
		}
	}
	woken := nw.FrontierSize()
	if woken == 0 || woken > n/4 {
		t.Errorf("3 failures woke %d peers, want a local neighborhood (0 < woken <= %d)", woken, n/4)
	}
	for i := 0; i < 3; i++ {
		id := ident.ID(rng.Uint64() | 1)
		live := nw.Peers() // sorted
		contact := live[ident.SuccessorIndex(live, id)]
		if contact == id {
			continue
		}
		if err := nw.Join(id, contact); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	res, err := sim.RunToStable(context.Background(), nw, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rechord.ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
		t.Fatalf("wrong state after churn: %v", err)
	}
	t.Logf("churn (3 fail + 3 join, woke %d/%d) re-settled in %d rounds, %v", woken, n, res.Rounds, time.Since(start))
}

// TestCompactHandleSmoke is the CI tier: it runs even under -short,
// proving the dense layout converges, survives churn, and matches the
// oracle at a size that takes seconds.
func TestCompactHandleSmoke(t *testing.T) {
	const n = 2048
	nw, ids, _ := settle(t, n)
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("n=%d converged to wrong state: %v", n, err)
	}
	recordMetrics(t, "sync-n2048", nw, ids, rand.New(rand.NewSource(7)))
	churnAndReconverge(t, nw, ids, rand.New(rand.NewSource(99)))
}

// TestN131072ConvergesToIdeal is the headline scale test: the network
// must settle to the exact oracle topology at n = 131072 — two
// doublings past the n=65536 rung the compact-handle relayout bought,
// reachable because a barrier now costs O(frontier), not O(n): the
// inverted wake index finds the dependents of the round's changed
// peers directly, and a per-batch image of the active peers' edge sets
// replaced the per-barrier deep clone. Churn handling at scale is exercised by
// TestCompactHandleSmoke (and the largescale suite's n=1024 failure
// test); repeating it here adds tens of minutes of runtime without
// adding coverage, and the whole binary must stay inside one go-test
// timeout.
func TestN131072ConvergesToIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("n=131072 convergence skipped with -short (see TestCompactHandleSmoke for the CI tier)")
	}
	// ~67 minutes measured on the reference machine; demand headroom
	// for slower or contended ones.
	needBudget(t, 90*time.Minute)
	const n = 131072
	nw, ids, perPeer := settle(t, n)
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("n=%d converged to wrong state: %v", n, err)
	}
	// The dense layout's whole point: the settled per-peer footprint —
	// dominated by the standing message flows (~300 messages per peer),
	// with the protocol state and the inverted index's dependent lists
	// on top — must stay small enough that
	// n=131072 fits comfortably in memory. The map layout measured
	// ~72 KiB/peer at n=16384 where this layout (with settled peers
	// releasing their rule scratch and right-sized flow buffers)
	// measures ~47 KiB; footprint grows ~log n with the level count,
	// so the ceiling catches a regression without tripping on
	// allocator noise.
	if perPeer > 80*1024 {
		t.Errorf("resident state = %.0f bytes/peer, want well under the map layout's footprint", perPeer)
	}

	// Steady state stays free at this scale too.
	start := time.Now()
	const extra = 1000
	for i := 0; i < extra; i++ {
		nw.Step()
	}
	if per := time.Since(start) / extra; per > time.Millisecond {
		t.Errorf("quiescent round cost %v at n=%d, want O(1)", per, n)
	}
	if nw.FrontierSize() != 0 {
		t.Fatal("quiescent rounds re-dirtied peers")
	}
}

// TestN262144ConvergesToIdeal is the rung the phased barrier opens:
// one doubling past n=131072. The bound resource at this size is the
// phase-3 publish — every active peer rewriting its standing
// contributions into its recipients' buckets — which the barrier now
// splits into a parallel prepare (per-peer diffing and planning, no
// shared writes) and a serial commit of only the changed buckets, so
// wall-clock scales down with cores while the result stays
// bit-identical to Workers=1 (see TestWorkersLockstepChurn). On a single core the rung is ~2.5-3h of
// settle work; the budget check keeps a plain `go test ./...` green.
func TestN262144ConvergesToIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("n=262144 convergence skipped with -short (see TestCompactHandleSmoke for the CI tier)")
	}
	needBudget(t, 210*time.Minute)
	const n = 262144
	nw, ids, perPeer := settle(t, n)
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("n=%d converged to wrong state: %v", n, err)
	}
	// Same ceiling as n=131072: footprint grows ~log n with the level
	// count, and a doubling adds one level, so the 80 KiB/peer bound
	// still holds with margin (~12 GiB resident total at this size).
	if perPeer > 80*1024 {
		t.Errorf("resident state = %.0f bytes/peer, want well under the map layout's footprint", perPeer)
	}

	start := time.Now()
	const extra = 1000
	for i := 0; i < extra; i++ {
		nw.Step()
	}
	if per := time.Since(start) / extra; per > time.Millisecond {
		t.Errorf("quiescent round cost %v at n=%d, want O(1)", per, n)
	}
	if nw.FrontierSize() != 0 {
		t.Fatal("quiescent rounds re-dirtied peers")
	}
}

// TestAsyncN8192ConvergesToIdeal raises the asynchronous tier past
// the largescale suite's n=2048: the event-driven runner — activation
// probability 0.5, messages delayed up to 3 steps — must settle
// n=8192 to the exact oracle state. The async barrier shares the
// synchronous engine's incremental machinery (the wake index and
// pre-round image are maintained by the same runBatch), so the rung
// also pins that the index survives the async delivery paths at
// scale.
func TestAsyncN8192ConvergesToIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("n=8192 async convergence skipped with -short")
	}
	// ~4 minutes measured on the reference machine.
	needBudget(t, 15*time.Minute)
	const n = 8192
	rng := rand.New(rand.NewSource(int64(n)))
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	runner := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 3}}, rng)
	start := time.Now()
	res, err := sim.RunToStable(context.Background(), runner, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !runner.Quiescent() {
		t.Fatal("stable async network not quiescent")
	}
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		t.Fatalf("n=%d async converged to wrong state: %v", n, err)
	}
	wall := time.Since(start)
	t.Logf("n=%d: settled in %d async steps, %v", n, res.Rounds, wall)
	record(t, scaletable.Entry{N: n, Model: "async", Rounds: res.Rounds, WallSeconds: wall.Seconds()})
	recordMetrics(t, "async-n8192", nw, ids, rng)

	// Quiescent async steps stay frontier-proportional at this scale.
	start = time.Now()
	const extra = 1000
	for i := 0; i < extra; i++ {
		runner.Step()
	}
	if per := time.Since(start) / extra; per > time.Millisecond {
		t.Errorf("quiescent async step cost %v at n=%d, want O(1)", per, n)
	}
	if nw.FrontierSize() != 0 {
		t.Fatal("quiescent async steps re-dirtied peers")
	}
}
