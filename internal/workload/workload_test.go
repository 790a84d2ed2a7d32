package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
)

func stableNet(t testing.TB, n int, seed int64) (*rechord.Network, []ident.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw, ids, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return nw, ids
}

func TestRunSmoke(t *testing.T) {
	nw, _ := stableNet(t, 24, 1)
	res, err := Run(context.Background(), nw, Config{Workers: 4, Ops: 800, Keyspace: 256, Preload: 128, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 800 {
		t.Fatalf("Ops = %d, want 800", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("%d routing errors on a stable network", res.Errors)
	}
	if res.Fallbacks != 0 || res.RetryWait != 0 {
		t.Errorf("churn-free run retried %d ops, parked %v", res.Fallbacks, res.RetryWait)
	}
	if res.Latency.N() != 800 || res.Hops.N() == 0 {
		t.Fatalf("telemetry incomplete: lat n=%d hops n=%d", res.Latency.N(), res.Hops.N())
	}
	if res.CacheMisses == 0 || res.CacheHits == 0 {
		t.Fatalf("cache untouched: hits=%d misses=%d", res.CacheHits, res.CacheMisses)
	}
	// On a quiescent network the cache converges to one table build per
	// peer: hits must dominate.
	if res.CacheHits < res.CacheMisses {
		t.Errorf("cache hits %d < misses %d on a churn-free run", res.CacheHits, res.CacheMisses)
	}
	perOpTotal := 0
	for _, op := range res.PerOp {
		perOpTotal += op.Count
	}
	if perOpTotal != res.Ops {
		t.Errorf("per-op counts sum to %d, want %d", perOpTotal, res.Ops)
	}
}

func TestRunReproducible(t *testing.T) {
	// Same seed + config on identically seeded networks => identical op
	// sequences and identical final store contents, for every
	// distribution and any worker count.
	for _, dist := range []string{DistUniform, DistZipf, DistHotspot} {
		cfg := Config{
			Workers: 6, Ops: 1200, Keyspace: 300, Preload: 100,
			Distribution: dist, Seed: 7,
		}
		nw1, _ := stableNet(t, 20, 3)
		r1, err := Run(context.Background(), nw1, cfg)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		nw2, _ := stableNet(t, 20, 3)
		r2, err := Run(context.Background(), nw2, cfg)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if r1.OpsFingerprint != r2.OpsFingerprint {
			t.Errorf("%s: op sequences diverged: %x vs %x", dist, r1.OpsFingerprint, r2.OpsFingerprint)
		}
		if r1.StoreFingerprint != r2.StoreFingerprint || r1.StoreLen != r2.StoreLen {
			t.Errorf("%s: final store contents diverged: %x/%d vs %x/%d",
				dist, r1.StoreFingerprint, r1.StoreLen, r2.StoreFingerprint, r2.StoreLen)
		}
		// A different seed must actually change the stream.
		cfg.Seed = 8
		nw3, _ := stableNet(t, 20, 3)
		r3, err := Run(context.Background(), nw3, cfg)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if r3.OpsFingerprint == r1.OpsFingerprint {
			t.Errorf("%s: different seed, same op fingerprint", dist)
		}
	}
}

// TestRaceWorkersAgainstChurn is the subsystem's race gate: >= 8
// concurrent client workers hammering the sharded store and the
// published routing view while the churn driver mutates, re-stabilizes
// and re-publishes the network under them, with nothing between the two
// sides but the publish. Run with -race (the CI race job does).
func TestRaceWorkersAgainstChurn(t *testing.T) {
	const events, ops, keyspace = 12, 24_000, 512
	retried, waited := 0, time.Duration(0)
	var store *dht.Store
	storeHook = func(s *dht.Store) { store = s }
	defer func() { storeHook = nil }()
	for _, seed := range []int64{1, 2, 4, 6, 7, 9} {
		nw, _ := stableNet(t, 48, seed)
		kinds := map[churn.Kind]int{} // written by the churn driver, read after Run
		res, err := Run(context.Background(), nw, Config{
			Workers: 8, Ops: ops, Keyspace: keyspace, Preload: 256, Seed: seed,
			Distribution: DistZipf,
			Churn: ChurnConfig{Events: events, EveryOps: ops / (2 * events),
				OnApply: func(ev churn.Event) { kinds[ev.Kind]++ }},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if kinds[churn.Join] == 0 || kinds[churn.Leave] == 0 || kinds[churn.Fail] == 0 {
			t.Fatalf("seed %d: applied events %v: the race must cover joins, leaves and crashes", seed, kinds)
		}
		if res.Ops != ops {
			t.Fatalf("seed %d: Ops = %d, want %d", seed, res.Ops, ops)
		}
		// A lookup that trips over mid-repair state — a stale finger, a
		// table with no successor yet, a departed home — is retried on the
		// next published view, so under the full join/leave/fail mix
		// nothing surfaces to a client.
		if res.Errors != 0 {
			t.Errorf("seed %d: %d/%d ops failed under churn", seed, res.Errors, res.Ops)
		}
		if !nw.Quiescent() {
			t.Errorf("seed %d: network not re-stabilized after the run", seed)
		}
		if err := churn.VerifyStable(nw); err != nil {
			t.Errorf("seed %d: network left the legal state: %v", seed, err)
		}
		checkPlacement(t, fmt.Sprintf("seed %d", seed), store, nw, keyspace)
		retried += res.Fallbacks
		waited += res.RetryWait
		t.Logf("seed %d: %s", seed, res.Summary())
	}
	// Zero errors prove the retry only if some lookup needed it.
	if retried == 0 {
		t.Error("no lookup was retried on a later view: the race exercised no mid-repair failure")
	}
	if waited <= 0 {
		t.Errorf("%d retries but RetryWait = %v: the time parked for a newer view went unrecorded", retried, waited)
	}
}

// checkPlacement audits where a run left the store's pairs. On the
// settled view a Get finds a key exactly when a copy sits at the key's
// owner, so Len minus the keys found counts the misplaced pairs: the
// strays that client writes racing the last Rebalance left. A quiet
// Rebalance must move exactly those, and afterwards every pair is at
// its owner.
func checkPlacement(t *testing.T, label string, s *dht.Store, nw *rechord.Network, keyspace int) {
	t.Helper()
	found := func() int {
		peers := nw.Peers()
		n := 0
		for i := 0; i < keyspace; i++ {
			k := dht.KeyOf(keyName(i))
			owner, _, err := s.Locate(peers[0], k)
			if err != nil {
				t.Fatalf("%s: %q unresolvable on the settled view: %v", label, k.Name, err)
			}
			if want := ident.Successor(peers, k.ID); owner != want {
				t.Fatalf("%s: %q resolves to %s, its owner is %s", label, k.Name, owner, want)
			}
			switch _, _, err := s.GetKey(peers[0], k); {
			case err == nil:
				n++
			case !errors.Is(err, dht.ErrNotFound):
				t.Fatalf("%s: Get %q: %v", label, k.Name, err)
			}
		}
		return n
	}
	misplaced := s.Len() - found()
	moved, err := s.Rebalance()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if moved != misplaced {
		t.Errorf("%s: Rebalance moved %d pairs, %d were misplaced", label, moved, misplaced)
	}
	if n, stored := found(), s.Len(); n != stored {
		t.Errorf("%s: %d of %d stored pairs sit at their owner after Rebalance", label, n, stored)
	}
}

// TestCancelMidRunLeavesNetworkSteppable is the context-shutdown
// regression test: canceling a run with active churn must stop the
// workers AND the churn driver (no orphaned churn steps), return the
// partial telemetry with ctx.Err(), and leave the network at a round
// barrier from which stabilization can be finished normally.
func TestCancelMidRunLeavesNetworkSteppable(t *testing.T) {
	nw, _ := stableNet(t, 32, 9)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		// Effectively unbounded ops with churn spaced tightly, so the
		// run is mid-traffic and mid-churn whenever the cancel lands.
		res, err := Run(ctx, nw, Config{
			Workers: 4, Ops: 50_000_000, Keyspace: 512, Preload: 128, Seed: 7,
			Churn: ChurnConfig{Events: 1000, EveryOps: 200},
		})
		done <- outcome{res, err}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	roundAtCancel := -1
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10s of cancellation")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("Run returned err = %v, want context.Canceled", out.err)
	}
	if out.res == nil || out.res.Ops == 0 {
		t.Fatal("canceled Run returned no partial telemetry")
	}
	// No goroutine of the run may keep stepping the network: the round
	// counter must be frozen once Run has returned.
	roundAtCancel = nw.Round()
	time.Sleep(50 * time.Millisecond)
	if r := nw.Round(); r != roundAtCancel {
		t.Fatalf("network stepped from round %d to %d after Run returned: orphaned churn driver", roundAtCancel, r)
	}
	// The network must be left steppable: finish the interrupted
	// re-stabilization and verify the legal state is reached.
	nw.Step()
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatalf("network not steppable to the fixed point after cancellation: %v", err)
	}
	if err := churn.VerifyStable(nw); err != nil {
		t.Fatalf("network cannot reach the legal state after cancellation: %v", err)
	}
}

// TestKeysSurviveChurnBurst is the routing-under-churn property: every
// key stored before a join/leave/fail burst is resolvable again, via
// the cached router, once Quiescent() holds and the store has
// rebalanced.
func TestKeysSurviveChurnBurst(t *testing.T) {
	nw, ids := stableNet(t, 32, 9)
	rng := rand.New(rand.NewSource(99))
	cache := routing.NewCache(nw)
	store := dht.NewWithResolver(nw, cache)
	const keys = 150
	for i := 0; i < keys; i++ {
		if _, _, err := store.Put(ids[rng.Intn(len(ids))], keyName(i), "pre-burst"); err != nil {
			t.Fatal(err)
		}
	}
	// The burst: three joins, two leaves, one failure, applied
	// back-to-back with no stabilization in between.
	for i := 0; i < 3; i++ {
		if err := nw.Join(ident.ID(rng.Uint64()|1), ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	for _, victim := range []ident.ID{ids[3], ids[17]} {
		if err := nw.Leave(victim); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Fail(ids[25]); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if !nw.Quiescent() {
		t.Fatal("RunToStable returned but the network is not quiescent")
	}
	if _, err := store.Rebalance(); err != nil {
		t.Fatal(err)
	}
	peers := nw.Peers()
	for i := 0; i < keys; i++ {
		key := keyName(i)
		v, _, err := store.Get(peers[rng.Intn(len(peers))], key)
		if err != nil {
			t.Fatalf("key %q unresolvable after the burst: %v", key, err)
		}
		if v != "pre-burst" {
			t.Fatalf("key %q = %q after the burst", key, v)
		}
		if want := ident.Successor(peers, dht.KeyID(key)); true {
			owner, _, err := cache.Resolve(peers[0], dht.KeyID(key))
			if err != nil || owner != want {
				t.Fatalf("cached route for %q = %s,%v; want %s", key, owner, err, want)
			}
		}
	}
}

func TestOpenLoopPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("paced run sleeps on the wall clock")
	}
	nw, _ := stableNet(t, 16, 13)
	res, err := Run(context.Background(), nw, Config{Workers: 2, Ops: 200, Keyspace: 64, Seed: 1, Rate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// 200 ops at 2000 ops/s should take ~100ms; a closed loop would
	// finish orders of magnitude faster.
	if res.Elapsed.Seconds() < 0.05 {
		t.Errorf("open loop finished in %v; pacing not applied", res.Elapsed)
	}
	if res.Throughput > 2600 {
		t.Errorf("throughput %.0f ops/s exceeds the 2000 ops/s target", res.Throughput)
	}
}

func TestConfigValidation(t *testing.T) {
	nw, _ := stableNet(t, 8, 17)
	if _, err := Run(context.Background(), nw, Config{Workers: 4, Ops: 10, Keyspace: 2}); err == nil {
		t.Error("keyspace < workers must error")
	}
	if _, err := Run(context.Background(), nw, Config{Workers: 2}); err == nil {
		t.Error("no Ops and no Duration must error")
	}
	if _, err := Run(context.Background(), nw, Config{Ops: 10, GetFrac: 0.5, PutFrac: 0.1, DeleteFrac: 0.1}); err == nil {
		t.Error("op mix not summing to 1 must error")
	}
	if _, err := Run(context.Background(), nw, Config{Ops: 10, Distribution: "pareto"}); err == nil {
		t.Error("unknown distribution must error")
	}
	if _, err := Run(context.Background(), nw, Config{Duration: time.Second, Churn: ChurnConfig{Events: 3}}); err == nil {
		t.Error("duration mode with churn but no EveryOps must error")
	}
	if _, err := Run(context.Background(), rechord.NewNetwork(rechord.Config{}), Config{Ops: 10}); err == nil {
		t.Error("empty network must error")
	}
}

func TestWriteSlotPartition(t *testing.T) {
	cfg := Config{Workers: 5, Keyspace: 103}
	for idx := 0; idx < cfg.Keyspace; idx++ {
		for w := 0; w < cfg.Workers; w++ {
			slot := writeSlot(idx, w, cfg)
			if slot < 0 || slot >= cfg.Keyspace {
				t.Fatalf("writeSlot(%d, %d) = %d out of range", idx, w, slot)
			}
			if slot%cfg.Workers != w {
				t.Fatalf("writeSlot(%d, %d) = %d not in worker's residue class", idx, w, slot)
			}
		}
	}
}

func TestZipfSkewsTraffic(t *testing.T) {
	// The zipf stream must concentrate on few keys relative to uniform.
	cfg := Config{Keyspace: 1000, Distribution: DistZipf}
	rng := rand.New(rand.NewSource(1))
	gen, err := newKeyGen(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[gen.next(i)]++
	}
	// Under uniform the head key would draw ~draws/keyspace (= 20);
	// zipf must concentrate an order of magnitude more on it, and the
	// ten hottest keys must carry a disproportionate share.
	if counts[0] < 10*draws/cfg.Keyspace {
		t.Errorf("zipf head key drew %d of %d; expected heavy head", counts[0], draws)
	}
	hot := 0
	for k := 0; k < 10; k++ {
		hot += counts[k]
	}
	if hot < draws/5 {
		t.Errorf("zipf 10 hottest keys drew %d of %d; expected > 20%%", hot, draws)
	}
}

func TestNotFoundNotCountedAsError(t *testing.T) {
	nw, ids := stableNet(t, 12, 21)
	store := dht.New(nw)
	_, _, err := store.Get(ids[0], "absent")
	if !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	// A pure-Get run over an empty store: all misses, zero errors.
	res, err := Run(context.Background(), nw, Config{Workers: 2, Ops: 100, Keyspace: 50, Seed: 3, GetFrac: 1, PutFrac: 0, DeleteFrac: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("misses counted as errors: %d", res.Errors)
	}
	if res.NotFound != 100 {
		t.Errorf("NotFound = %d, want 100", res.NotFound)
	}
}

// TestOpPathAllocs pins what one client op pays beyond its route and
// shard lock: nothing that allocates. Over a published view through
// routing.ViewResolver, a hashed Get that hits, a Get that misses (the
// bare ErrNotFound, no formatted error), a Delete of an absent key, and
// the live metrics' in-flight adds around ObserveOp all run with zero
// allocations.
func TestOpPathAllocs(t *testing.T) {
	nw, ids := stableNet(t, 32, 4)
	cache := routing.NewCache(nw)
	cache.Publish()
	store := dht.NewWithResolver(nw, routing.ViewResolver{Cache: cache})
	hit, miss := dht.KeyOf(keyName(1)), dht.KeyOf(keyName(2))
	if _, _, err := store.PutKey(ids[0], hit, "v"); err != nil {
		t.Fatal(err)
	}
	met := obs.NewWorkloadMetrics(4, opNames[:]...)
	home := ids[len(ids)/2]
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"get hit", func() {
			if _, _, err := store.GetKey(home, hit); err != nil {
				t.Fatal(err)
			}
		}},
		{"get miss", func() {
			if _, _, err := store.GetKey(home, miss); err != dht.ErrNotFound {
				t.Fatalf("miss returned %v, want the bare ErrNotFound", err)
			}
		}},
		{"delete absent", func() {
			if existed, _, err := store.DeleteKey(home, miss); existed || err != nil {
				t.Fatalf("delete absent = %v, %v", existed, err)
			}
		}},
		{"observe op", func() {
			met.InFlight.Add(3, 1)
			met.InFlight.Add(3, -1)
			met.ObserveOp(3, opGet, 4, obs.OpNotFound, 1500)
		}},
	} {
		if got := testing.AllocsPerRun(200, c.op); got != 0 {
			t.Errorf("%s: %.1f allocs per op, want 0", c.name, got)
		}
	}
}

// TestRenderMatchesFormat pins the strconv renderings of key names and
// stored values to the formats they replace, byte for byte: the store
// fingerprint of a run depends on them.
func TestRenderMatchesFormat(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 99, 12345, 99999, 100000, 999999, 1000000, 123456789} {
		if got, want := keyName(i), fmt.Sprintf("key-%06d", i); got != want {
			t.Errorf("keyName(%d) = %q, want %q", i, got, want)
		}
		if got, want := seedValue(i), fmt.Sprintf("seed#%d", i); got != want {
			t.Errorf("seedValue(%d) = %q, want %q", i, got, want)
		}
		if got, want := putValue(i%17, i), fmt.Sprintf("w%d#%d", i%17, i); got != want {
			t.Errorf("putValue(%d, %d) = %q, want %q", i%17, i, got, want)
		}
	}
}

// TestKeyTableBounded pins the per-worker key table's memory to
// min(Keyspace, ops) entries: a worker with fewer ops than keys keeps
// only the keys it touched, one with more keeps one slot per key, and
// either way a key is the hashed rendering of its index.
func TestKeyTableBounded(t *testing.T) {
	cfg := Config{Keyspace: 1000}
	few := newKeyTable(cfg, 10)
	for i := 0; i < 10; i++ {
		few.key(i * 37 % cfg.Keyspace)
		few.key(i * 37 % cfg.Keyspace)
	}
	if few.dense != nil || len(few.sparse) != 10 {
		t.Errorf("10 ops over 1000 keys: dense %d, sparse %d entries, want a 10-entry map", len(few.dense), len(few.sparse))
	}
	many := newKeyTable(cfg, 5000)
	if many.sparse != nil || len(many.dense) != cfg.Keyspace {
		t.Errorf("5000 ops over 1000 keys: dense %d, sparse %d entries, want 1000 slots", len(many.dense), len(many.sparse))
	}
	for _, kt := range []*keyTable{&few, &many} {
		if got, want := kt.key(370), dht.KeyOf("key-000370"); got != want {
			t.Errorf("key(370) = %+v, want %+v", got, want)
		}
	}
}

// joinFirstSeed returns a run seed whose first churn event, drawn the
// way Run draws it, is a join.
func joinFirstSeed(nw *rechord.Network) int64 {
	for seed := int64(1); ; seed++ {
		if churn.RandomEvents(nw, 1, rand.New(rand.NewSource(seed^churnSeedMask)))[0].Kind == churn.Join {
			return seed
		}
	}
}

// gatedScheduler holds each of its first gated Steps back until the
// clients have completed need more operations: a step that only
// returns once lookups made progress during it.
type gatedScheduler struct {
	rechord.Scheduler
	ops         func() uint64
	need        uint64
	gated       int
	held, stuck atomic.Int32
}

func (g *gatedScheduler) Step() rechord.RoundStats {
	if int(g.held.Load()) < g.gated {
		g.held.Add(1)
		target := g.ops() + g.need
		for deadline := time.Now().Add(3 * time.Second); g.ops() < target; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				g.stuck.Add(1)
				g.gated = 0 // let the run finish and report
				break
			}
		}
	}
	return g.Scheduler.Step()
}

// TestLookupsProceedWhileStepBlocked proves no client waits for a
// step: the scheduler refuses to finish a round until the clients have
// completed more operations, which they can only do if they neither
// wait for the stepping driver nor read the state it mutates. A client
// that parks behind the step starves it, and the gate reports the round
// stuck. The run is sized by the repair, not by an op budget the
// clients could spend before the gated steps are through: it lasts
// until the one event has settled.
func TestLookupsProceedWhileStepBlocked(t *testing.T) {
	nw, _ := stableNet(t, 32, 9)
	met := obs.NewWorkloadMetrics(4, "get", "put", "delete")
	sched := &gatedScheduler{Scheduler: nw, ops: met.Ops.Value, need: 200, gated: 8}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, sched, Config{
		Workers: 4, Duration: time.Minute, Keyspace: 512, Preload: 128, Seed: joinFirstSeed(nw), Obs: met,
		Churn: ChurnConfig{Events: 1, EveryOps: 1000, OnSettle: func(int) { cancel() }},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want the cancel its settled repair issues", err)
	}
	if stuck := sched.stuck.Load(); stuck != 0 {
		t.Fatalf("%d gated steps saw no client progress for 3s: lookups wait for the step", stuck)
	}
	if held := sched.held.Load(); held != 8 {
		t.Fatalf("the repair gated %d steps, want 8: the test exercised nothing", held)
	}
	if res.ChurnApplied != 1 || res.Errors != 0 {
		t.Fatalf("applied %d events, %d errors", res.ChurnApplied, res.Errors)
	}
	if !nw.Quiescent() {
		t.Error("network not re-stabilized after the run")
	}
}

// restless is a scheduler that never reports its fixed point.
type restless struct{ rechord.Scheduler }

func (restless) Quiescent() bool { return false }

// TestExhaustedRepairIsAnError: a repair that runs out of its round
// budget did not settle. Run says so, and OnSettle — which the facade
// turns into a region-settled event — does not fire.
func TestExhaustedRepairIsAnError(t *testing.T) {
	nw, _ := stableNet(t, 12, 4)
	settled := 0
	res, err := Run(context.Background(), restless{nw}, Config{
		Workers: 2, Ops: 4000, Keyspace: 128, Seed: 5,
		Churn: ChurnConfig{Events: 2, EveryOps: 200, OnSettle: func(int) { settled++ }},
	})
	if !errors.Is(err, ErrUnsettled) {
		t.Fatalf("a repair that never quiesced returned %v, want ErrUnsettled", err)
	}
	if settled != 0 {
		t.Fatalf("OnSettle fired %d times for a repair that did not settle", settled)
	}
	if res == nil || res.Ops != 4000 || res.ChurnApplied != 1 {
		t.Fatalf("result %+v: want all ops served and the one event before the exhausted repair applied", res)
	}
}
