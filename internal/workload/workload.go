// Package workload is the serving layer of the reproduction: an
// open/closed-loop traffic generator that fires concurrent Get/Put/
// Delete operations at a live Re-Chord network from a pool of client
// workers, with pluggable key distributions (uniform, Zipf, shifting
// hotspot), deterministic per-worker RNG seeding, and optional churn
// interleaved with the traffic so lookups race against
// re-stabilization — the regime the self-stabilization protocol exists
// for (Theorem 1.1's "faithfully emulate any applications on top of
// Chord", under the churn of Section 4).
//
// The hot path is built on the two layers refactored for it: the
// sharded dht.Store (per-peer buckets behind fine-grained locks) and
// the routing.Cache (per-peer tables published as an immutable view
// and kept level through peer change epochs instead of rebuilt per
// lookup). Per-op latency and hop counts are recorded into per-worker
// stats.Histogram shards and merged after the run, so the measurement
// itself adds no cross-worker contention.
//
// Concurrency model: the churn driver is the only goroutine that
// touches the network. It applies a membership event or steps the
// protocol a few rounds, then publishes: the tables of the peers whose
// state moved are rebuilt and swapped into the cache's view. Client
// workers pick their home peer, check it and route entirely on the last
// published view — no lock, no read of engine state — so they see the
// round-barrier states a lock would show them, mid-repair ones
// included, without waiting for a step. Every such state is routable
// (the paper's Section 4), but a table read off one can be incomplete;
// a lookup that cannot complete on it is correct-or-retry: the client
// waits for the next publish and routes again, at the latest on the
// settled view. No lock is taken anywhere on the op path.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrConfig reports an invalid Config, distinguishable with errors.Is
// from runtime failures (routing errors, empty network) so callers can
// keep configuration mistakes and serving faults in separate buckets.
var ErrConfig = errors.New("workload: invalid configuration")

// ErrUnsettled reports a run whose churn driver gave up on a repair
// that exhausted its round budget; the network is left mid-repair.
var ErrUnsettled = errors.New("workload: repair did not settle")

// churnSeedMask separates the churn-event stream from the op streams
// drawn from the same run seed.
const churnSeedMask = 0x5DEECE66D

// stepChunk is how many protocol rounds the churn driver executes
// between two publishes while the network re-stabilizes: the cadence at
// which clients see mid-repair states.
const stepChunk = 4

// ChurnConfig interleaves membership events with the traffic.
type ChurnConfig struct {
	// Events is the number of membership events (random mix of join,
	// leave, fail) applied during the run; 0 disables churn.
	Events int
	// EveryOps is how many completed operations separate consecutive
	// events (default: spread evenly across the run).
	EveryOps int
	// OnApply, when non-nil, is called after each membership event is
	// successfully applied (from the churn-driver goroutine). The
	// cluster facade uses it to publish lifecycle events.
	OnApply func(ev churn.Event)
	// OnSettle, when non-nil, is called after the network re-stabilizes
	// following an applied event, with the number of protocol rounds
	// the repair took (from the churn-driver goroutine).
	// A repair that was canceled or ran out of its round budget did not
	// settle and is not reported.
	OnSettle func(rounds int)
}

// Config parameterizes one workload run.
type Config struct {
	// Workers is the number of concurrent client workers (default 4).
	Workers int
	// Ops is the total operation count, split across workers.
	Ops int
	// Duration, when positive, replaces Ops as the stop condition:
	// workers run until the deadline. Duration runs are not
	// reproducible op-for-op (the count depends on timing).
	Duration time.Duration
	// Keyspace is the number of distinct keys (default 4096; must be
	// at least Workers).
	Keyspace int
	// Distribution is uniform, zipf or hotspot (default uniform); the
	// shapes of the last two are constants (keygen.go).
	Distribution string
	// GetFrac, PutFrac, DeleteFrac is the op mix (default .80/.15/.05;
	// must sum to ~1).
	GetFrac, PutFrac, DeleteFrac float64
	// Preload stores this many keys before the measured run.
	Preload int
	// Seed drives every random choice. Same seed + same config =>
	// identical per-worker op sequences and identical final store
	// contents (writes are owner-partitioned per worker, see below).
	Seed int64
	// Rate, when positive, paces the run as an open loop targeting
	// this many ops/sec across all workers; 0 is a closed loop (each
	// worker fires its next op as soon as the previous returns).
	Rate float64
	// Churn interleaves membership events with the traffic.
	Churn ChurnConfig
	// Cache, when non-nil, is the router cache to serve table lookups
	// from instead of a fresh per-run one — the cluster facade injects
	// its long-lived cache so hit/miss/invalidation telemetry spans the
	// cache's whole life while the run's report stays a per-run delta.
	Cache *routing.Cache
	// Obs, when non-nil, receives live serving-path telemetry during
	// the run (in-flight gauge, error taxonomy, sharded latency/hop
	// histograms) in addition to the per-run Result. It must have at
	// least numOps op slots, in get/put/delete order; the
	// cluster facade passes one long-lived set so metrics accumulate
	// across runs and can be snapshotted mid-run without locks.
	Obs *obs.WorkloadMetrics
}

// withDefaults validates and fills in defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Keyspace <= 0 {
		cfg.Keyspace = 4096
	}
	if cfg.Keyspace < cfg.Workers {
		return cfg, fmt.Errorf("%w: keyspace %d smaller than %d workers", ErrConfig, cfg.Keyspace, cfg.Workers)
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 {
		return cfg, fmt.Errorf("%w: need Ops or Duration", ErrConfig)
	}
	if cfg.GetFrac == 0 && cfg.PutFrac == 0 && cfg.DeleteFrac == 0 {
		cfg.GetFrac, cfg.PutFrac, cfg.DeleteFrac = 0.80, 0.15, 0.05
	}
	sum := cfg.GetFrac + cfg.PutFrac + cfg.DeleteFrac
	if sum < 0.999 || sum > 1.001 {
		return cfg, fmt.Errorf("%w: op mix %.3f+%.3f+%.3f does not sum to 1",
			ErrConfig, cfg.GetFrac, cfg.PutFrac, cfg.DeleteFrac)
	}
	if _, err := newKeyGen(cfg, rand.New(rand.NewSource(0))); err != nil {
		return cfg, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if cfg.Churn.Events > 0 {
		if cfg.Churn.EveryOps <= 0 {
			if cfg.Ops <= 0 {
				// Duration mode has no op total to spread events over;
				// a derived default would fire them all at the start.
				return cfg, fmt.Errorf("%w: Duration mode with churn requires Churn.EveryOps", ErrConfig)
			}
			every := cfg.Ops / (cfg.Churn.Events + 1)
			if every < 1 {
				every = 1
			}
			cfg.Churn.EveryOps = every
		}
	}
	return cfg, nil
}

// Op kinds, indexing Result.PerOp.
const (
	opGet = iota
	opPut
	opDelete
	numOps
)

var opNames = [numOps]string{"get", "put", "delete"}

// OpStats is the telemetry of one operation kind.
type OpStats struct {
	Name    string
	Count   int
	Errors  int
	Latency *stats.Histogram // nanoseconds
	Hops    *stats.Histogram // inter-peer hops
}

// Result is the merged telemetry of a run.
type Result struct {
	Ops        int           // operations completed
	Errors     int           // routing failures surfaced to clients
	NotFound   int           // Gets that reached the owner but missed
	Fallbacks  int           // lookup retries on a later published view
	RetryWait  time.Duration // client time parked waiting for those views, summed over workers
	Elapsed    time.Duration // wall-clock of the measured phase
	Throughput float64       // ops per second

	Latency *stats.Histogram // all ops, nanoseconds
	Hops    *stats.Histogram // all ops, inter-peer hops
	PerOp   [numOps]OpStats

	CacheHits, CacheMisses uint64 // routing.Cache counters
	ChurnApplied           int    // membership events actually applied

	// OpsFingerprint hashes every worker's (kind, key) op sequence,
	// combined order-insensitively across workers; StoreFingerprint
	// hashes the final key -> value contents independent of bucket
	// placement. Same seed + config reproduce both (StoreFingerprint
	// additionally requires a churn-free run, since a mid-churn routing
	// failure can drop a write).
	OpsFingerprint   uint64
	StoreFingerprint uint64
	StoreLen         int
}

// Summary renders the headline numbers as one line.
func (r *Result) Summary() string {
	return fmt.Sprintf("%d ops in %v (%.0f ops/s), lat p50=%s p99=%s p99.9=%s, hops mean=%.2f p99=%.0f, errors=%d notfound=%d fallbacks=%d retry_wait=%s",
		r.Ops, r.Elapsed.Round(time.Millisecond), r.Throughput,
		time.Duration(r.Latency.Percentile(50)), time.Duration(r.Latency.Percentile(99)),
		time.Duration(r.Latency.Percentile(99.9)),
		r.Hops.Mean(), r.Hops.Percentile(99), r.Errors, r.NotFound, r.Fallbacks, r.RetryWait)
}

// workerResult is one worker's private telemetry shard; merged after
// the run so the hot path shares nothing. Only ops is read while the
// run is live, by the churn driver pacing its events. The trailing pad
// keeps the next worker's shard off this one's last cache line.
type workerResult struct {
	lat, hops stats.Histogram
	perLat    [numOps]stats.Histogram
	perHops   [numOps]stats.Histogram
	count     [numOps]int
	errs      [numOps]int
	notFound  int
	retries   int
	retryWait time.Duration
	ops       atomic.Int64 // written by its worker alone
	opsHash   uint64
	_         [cacheLine]byte
}

// cacheLine is the padding that keeps two workers' shards apart.
const cacheLine = 64

type engine struct {
	// sched and nw belong to the churn driver (and to Run before any
	// client starts): no client goroutine reads them.
	sched rechord.Scheduler
	nw    *rechord.Network
	cfg   Config
	store *dht.Store
	cache *routing.Cache // holds the view the clients read

	// results are the workers' telemetry shards; the churn driver sums
	// their op counts to pace its events.
	results  []workerResult
	deadline time.Time

	// repairing is set while an applied event has not settled and
	// published counts the driver's publishes: what tells a client whose
	// lookup failed whether a newer state is coming.
	repairing atomic.Bool
	published atomic.Int64

	// Cache counters at run start, so the result reports a per-run
	// delta even over an injected long-lived cache.
	cacheHits0, cacheMisses0 uint64
}

// Run drives the workload against the scheduler's network and returns
// the merged telemetry. Passing the network itself serves traffic
// under the synchronous round engine; passing a rechord.AsyncRunner
// serves the same traffic while re-stabilization proceeds under the
// asynchronous adversary — lookups then race genuinely stale state
// mid-repair, delayed messages and all. The network must currently be
// stable; it is returned re-stabilized (the churn driver runs every
// event to quiescence before the run ends).
//
// Cancellation is honored end to end: workers stop before their next
// operation, and the churn driver stops both its event waiting and its
// re-stabilization stepping. A canceled Run returns the telemetry
// gathered so far together with ctx.Err(); the network is left at a
// step barrier, consistent and steppable (possibly mid-repair — run
// sim.Run on the same scheduler to finish the re-stabilization).
func Run(ctx context.Context, sched rechord.Scheduler, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := sched.Network()
	e := &engine{sched: sched, nw: nw, cfg: cfg, cache: cfg.Cache}
	if e.cache == nil {
		e.cache = routing.NewCache(nw)
	}
	// The caller may hand in a long-lived, pre-warmed cache; the run's
	// report stays a per-run delta either way.
	e.cacheHits0, e.cacheMisses0 = e.cache.Stats()
	e.publish()
	// The table lookup on the last published view, which reads nothing
	// of the network: a lookup that cannot complete on a mid-repair view
	// fails there and is retried by its worker on the next publish.
	e.store = dht.NewWithResolver(nw, routing.ViewResolver{Cache: e.cache})
	if storeHook != nil {
		storeHook(e.store)
	}

	homes := nw.Peers()
	if len(homes) == 0 {
		return nil, fmt.Errorf("workload: empty network")
	}

	// Preload, unmeasured: key i gets a deterministic seed value. Its
	// later fate is deterministic too, because only the worker owning
	// i's residue class ever writes it.
	for i := 0; i < cfg.Preload && i < cfg.Keyspace; i++ {
		if _, _, err := e.store.Put(homes[i%len(homes)], keyName(i), seedValue(i)); err != nil {
			return nil, fmt.Errorf("workload: preload: %w", err)
		}
	}

	// Pre-generate the churn sequence from the pre-run membership so
	// the event list itself is seed-deterministic.
	var events []churn.Event
	if cfg.Churn.Events > 0 {
		events = churn.RandomEvents(nw, cfg.Churn.Events, rand.New(rand.NewSource(cfg.Seed^churnSeedMask)))
	}

	e.results = make([]workerResult, cfg.Workers)
	start := time.Now()
	if cfg.Duration > 0 {
		e.deadline = start.Add(cfg.Duration)
	}

	workersDone := make(chan struct{})
	var applied int
	var churnErr error
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		applied, churnErr = e.churnDriver(ctx, events, workersDone)
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.worker(ctx, w, homes, start, &e.results[w])
		}(w)
	}
	wg.Wait()
	close(workersDone)
	<-churnDone
	elapsed := time.Since(start)

	// Merge the shards.
	res := &Result{
		Elapsed:      elapsed,
		ChurnApplied: applied,
		Latency:      &stats.Histogram{},
		Hops:         &stats.Histogram{},
	}
	for k := 0; k < numOps; k++ {
		res.PerOp[k] = OpStats{Name: opNames[k], Latency: &stats.Histogram{}, Hops: &stats.Histogram{}}
	}
	for w := range e.results {
		r := &e.results[w]
		res.Ops += int(r.ops.Load())
		res.NotFound += r.notFound
		res.Fallbacks += r.retries
		res.RetryWait += r.retryWait
		res.Latency.Merge(&r.lat)
		res.Hops.Merge(&r.hops)
		for k := 0; k < numOps; k++ {
			res.PerOp[k].Count += r.count[k]
			res.PerOp[k].Errors += r.errs[k]
			res.Errors += r.errs[k]
			res.PerOp[k].Latency.Merge(&r.perLat[k])
			res.PerOp[k].Hops.Merge(&r.perHops[k])
		}
		res.OpsFingerprint ^= mix64(r.opsHash + uint64(w)*0x9E3779B97F4A7C15)
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	hits, misses := e.cache.Stats()
	res.CacheHits, res.CacheMisses = hits-e.cacheHits0, misses-e.cacheMisses0
	res.StoreFingerprint = e.store.Fingerprint()
	res.StoreLen = e.store.Len()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, churnErr
}

// storeHook, when an in-package test sets it, is handed each run's
// store as soon as it exists, so the test can audit the placement the
// run leaves behind.
var storeHook func(*dht.Store)

// publish levels the view with the network, every member's table
// included, and tells waiting clients that a newer state is out. Only
// the churn driver calls it, and Run before any client starts.
func (e *engine) publish() {
	e.cache.Publish()
	e.published.Add(1)
}

// awaitPublish parks a client whose lookup failed on the state
// published as seq until the driver publishes a newer one. It reports
// false when none is coming — no repair is in flight, so the failure
// is real, or the run is canceled.
func (e *engine) awaitPublish(ctx context.Context, seq int64) bool {
	for e.published.Load() == seq {
		if !e.repairing.Load() || ctx.Err() != nil {
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return true
}

// worker runs one client: a deterministic op stream (seeded RNG per
// worker) executed against the store over the last published view. An
// operation whose routing fails while a repair is in flight (the table
// lookup tripped over mid-repair state, or the home departed under it)
// is retried on the next published state, at the latest the settled
// one; only a failure no newer state can cure is surfaced. It returns
// early when the context is done.
//
// An op pays for its route, its shard lock and its own telemetry: its
// key is rendered and hashed once per run (keyTable), a miss comes back
// as the bare dht.ErrNotFound, and every counter it moves, out's and
// the live metrics' shard w, is written by this worker alone.
func (e *engine) worker(ctx context.Context, w int, homes []ident.ID, start time.Time, out *workerResult) {
	cfg := e.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + int64(w+1)*int64(0x9E3779B97F4A7C15>>1)))
	// The distribution was validated by withDefaults, so this cannot
	// fail.
	gen, _ := newKeyGen(cfg, rng)
	n := opsFor(cfg, w)
	keys := newKeyTable(cfg, n)
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(cfg.Workers) / cfg.Rate * float64(time.Second))
	}
	for i := 0; cfg.Duration > 0 || i < n; i++ {
		if ctx.Err() != nil {
			return
		}
		if cfg.Duration > 0 && time.Now().After(e.deadline) {
			return
		}
		if interval > 0 {
			// Open loop: release op i at its scheduled time, measuring
			// the latency the op would impose on an arrival process
			// rather than the worker's own completion pace. The pacing
			// sleep stays interruptible so cancellation is not delayed
			// by a slow target rate.
			if !sleepCtx(ctx, time.Until(start.Add(time.Duration(i)*interval))) {
				return
			}
		}
		kind := pickOp(rng, cfg)
		idx := gen.next(i)
		if kind != opGet {
			idx = writeSlot(idx, w, cfg)
		}
		key := keys.key(idx)
		out.opsHash = fnvMix(out.opsHash, kind, idx)
		hi := rng.Intn(len(homes))

		if cfg.Obs != nil {
			cfg.Obs.InFlight.Add(w, 1)
		}
		t0 := time.Now()
		var hops int
		var opErr error
		var outcome obs.Outcome
		var routed bool // an owner was resolved (for a not-found too)
		for {
			seq := e.published.Load()
			home := aliveHome(e.cache.View(), homes, hi)
			switch kind {
			case opGet:
				_, hops, opErr = e.store.GetKey(home, key)
			case opPut:
				_, hops, opErr = e.store.PutKey(home, key, putValue(w, i))
			case opDelete:
				_, hops, opErr = e.store.DeleteKey(home, key)
			}
			outcome = dht.Outcome(opErr)
			routed = outcome == obs.OpOK || outcome == obs.OpNotFound
			if routed {
				break
			}
			parked := time.Now()
			retry := e.awaitPublish(ctx, seq)
			out.retryWait += time.Since(parked)
			if !retry {
				break
			}
			out.retries++
		}
		lat := float64(time.Since(t0).Nanoseconds())

		out.count[kind]++
		out.lat.Observe(lat)
		out.perLat[kind].Observe(lat)
		// A routed op contributes its hop count; a routing failure is an
		// error instead.
		if routed {
			out.hops.Observe(float64(hops))
			out.perHops[kind].Observe(float64(hops))
		} else {
			out.errs[kind]++
		}
		if outcome == obs.OpNotFound {
			out.notFound++
		}
		if cfg.Obs != nil {
			cfg.Obs.InFlight.Add(w, -1)
			cfg.Obs.ObserveOp(w, kind, hops, outcome, lat)
		}
		// The worker is ops' only writer: a store, not a locked add.
		out.ops.Store(out.ops.Load() + 1)
	}
}

// aliveHome returns homes[hi] or, when churn removed it, the next
// home clockwise in the pre-run snapshot that the view still lists.
func aliveHome(v *routing.View, homes []ident.ID, hi int) ident.ID {
	for range homes {
		if v.Has(homes[hi]) {
			return homes[hi]
		}
		hi = (hi + 1) % len(homes)
	}
	// Every pre-run home departed; fall back to any current peer.
	return v.Peers()[0]
}

// churnDriver applies the pre-generated events, spaced by completed
// ops, and steps whichever scheduler is active back to quiescence in
// small chunks, publishing after each so client lookups see mid-repair
// states (under the asynchronous scheduler, with mid-flight delayed
// messages too). After each settled event it rebalances the store onto
// the new membership — Store.Rebalance moves only the arcs the event
// re-homed and the strays clients wrote mid-repair, one shard lock at a
// time, so the clients keep running through it — and prunes the
// departed peers' tables. It returns how many events were applied, and
// an error when a repair ran out of its round budget, which ends the
// churn with the network mid-repair.
//
// Cancellation stops the driver at every stage: while waiting for the
// next event's op target, between re-stabilization chunks, and before
// the post-event rebalance — no churn step runs after the context is
// done and the current chunk finishes.
func (e *engine) churnDriver(ctx context.Context, events []churn.Event, done <-chan struct{}) (applied int, err error) {
	// However the driver leaves, no client may keep waiting for it.
	defer e.repairing.Store(false)
	for i, ev := range events {
		target := int64(i+1) * int64(e.cfg.Churn.EveryOps)
		for e.opsDone() < target {
			select {
			case <-ctx.Done():
				return applied, nil
			case <-done:
				return applied, nil
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		if ctx.Err() != nil {
			return applied, nil
		}
		e.repairing.Store(true)
		if err := ev.Apply(e.nw); err != nil {
			// The event list was generated against pre-run membership;
			// an event that no longer applies is skipped.
			e.repairing.Store(false)
			continue
		}
		e.publish()
		applied++
		if e.cfg.Churn.OnApply != nil {
			e.cfg.Churn.OnApply(ev)
		}

		maxRounds := sim.DefaultBudget(e.sched)
		stepped := 0
		for quiescent := false; !quiescent; {
			quiescent = e.sched.Quiescent()
			for c := 0; c < stepChunk && !quiescent; c++ {
				e.sched.Step()
				stepped++
				quiescent = e.sched.Quiescent()
			}
			e.publish()
			switch {
			case quiescent:
			case stepped > maxRounds:
				return applied, fmt.Errorf("%w: %s of %s after %d rounds", ErrUnsettled, ev.Kind, ev.ID, stepped)
			case ctx.Err() != nil:
				// Leave the network mid-repair but at a round barrier;
				// the caller resumes or finishes the stabilization.
				return applied, nil
			}
		}
		if e.cfg.Churn.OnSettle != nil {
			e.cfg.Churn.OnSettle(stepped)
		}

		// Hand the re-homed pairs to their new owners and drop the
		// tables of departed peers.
		_, _ = e.store.Rebalance()
		e.cache.Prune()
		e.repairing.Store(false)
	}
	return applied, nil
}

// opsDone sums the workers' completed op counts.
func (e *engine) opsDone() int64 {
	var n int64
	for w := range e.results {
		n += e.results[w].ops.Load()
	}
	return n
}

// opsFor splits cfg.Ops across workers, remainder to the low indices.
func opsFor(cfg Config, w int) int {
	n := cfg.Ops / cfg.Workers
	if w < cfg.Ops%cfg.Workers {
		n++
	}
	return n
}

// pickOp draws the op kind from the configured mix.
func pickOp(rng *rand.Rand, cfg Config) int {
	x := rng.Float64()
	switch {
	case x < cfg.GetFrac:
		return opGet
	case x < cfg.GetFrac+cfg.PutFrac:
		return opPut
	default:
		return opDelete
	}
}

// writeSlot snaps a key index to worker w's residue class, making w
// the only writer of that key: concurrent runs then agree on every
// key's final value regardless of scheduling, which is what makes the
// store fingerprint reproducible. Reads are unrestricted.
func writeSlot(idx, w int, cfg Config) int {
	slot := idx - idx%cfg.Workers + w
	if slot >= cfg.Keyspace {
		slot -= cfg.Workers
	}
	return slot
}

// keyTable renders and hashes each key index a worker touches at most
// once per run. It is dense, indexed by key index, when the worker may
// touch every key, and a map otherwise, so it holds at most
// min(Keyspace, ops) entries either way.
type keyTable struct {
	dense  []dht.Key // a zero Name marks an index not yet rendered
	sparse map[int]dht.Key
}

// newKeyTable sizes the table of a worker that runs n ops under cfg.
func newKeyTable(cfg Config, n int) keyTable {
	if cfg.Duration <= 0 && n < cfg.Keyspace {
		return keyTable{sparse: make(map[int]dht.Key)}
	}
	return keyTable{dense: make([]dht.Key, cfg.Keyspace)}
}

// key returns key index idx, rendering and hashing it on first use.
func (t *keyTable) key(idx int) dht.Key {
	if t.dense != nil {
		k := &t.dense[idx]
		if k.Name == "" {
			*k = dht.KeyOf(keyName(idx))
		}
		return *k
	}
	k, ok := t.sparse[idx]
	if !ok {
		k = dht.KeyOf(keyName(idx))
		t.sparse[idx] = k
	}
	return k
}

// keyName renders a key index as the stored key, "key-%06d".
func keyName(idx int) string {
	var buf [32]byte
	b := append(buf[:0], "key-"...)
	for pad := 100000; pad > 1 && idx < pad; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(idx), 10))
}

// putValue renders the value worker w's op i puts, "w%d#%d".
func putValue(w, i int) string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], 'w'), int64(w), 10)
	return string(strconv.AppendInt(append(b, '#'), int64(i), 10))
}

// seedValue renders the value preloaded under key index i, "seed#%d".
func seedValue(i int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], "seed#"...), int64(i), 10))
}

// fnvMix folds one (kind, key index) op into a running FNV-1a hash.
func fnvMix(h uint64, kind, idx int) uint64 {
	if h == 0 {
		h = 14695981039346656037 // FNV offset basis
	}
	for _, b := range [...]byte{byte(kind), byte(idx), byte(idx >> 8), byte(idx >> 16), byte(idx >> 24)} {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// mix64 finalizes a hash (splitmix64 finalizer) before the
// order-insensitive XOR combine across workers.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sleepCtx sleeps for d or until the context is done, reporting true
// when the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
