package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/cluster"
	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topogen"
	"repro/internal/workload"
)

// Fixed settings of every run (see README): the engine's worker pool
// and the number of closed-loop client goroutines.
const (
	engineWorkers = 2
	clients       = 2
)

// serveConfig is one chunk of traffic; everything else about the
// workload run (clients, key distribution, op mix) is fixed.
type serveConfig struct {
	Ops, Keyspace, Preload, Churn int
	Seed                          int64
}

// serveResult is what a chunk reports, the same from both systems.
type serveResult struct {
	Ops, Errors, NotFound, Fallbacks int
	Elapsed                          time.Duration
	P50, P99, P999, LatMean          float64 // ns
	HopsMean                         float64
	CacheHits, CacheMisses           uint64
	ChurnApplied                     int
	OpsFP, StoreFP                   uint64
}

// system is the part of the running Re-Chord system the cluster
// workloads drive. The untraced pass drives the public facade; the
// traced pass drives the same layers composed directly, with the
// decorators in between. A workload is written once against this.
type system interface {
	// Mark says which rep or event the following calls belong to (span
	// bookkeeping; the facade ignores it).
	Mark(unit int)
	Stabilize(ctx context.Context) (rounds int, err error)
	Join(ctx context.Context) (ident.ID, error)
	Leave(ctx context.Context, id ident.ID) error
	Fail(ctx context.Context, id ident.ID) error
	Peers() []ident.ID
	// VerifyStable checks the state against the oracle: the unique
	// stable topology of the current membership. Never timed.
	VerifyStable() error
	// VerifyLocal checks the local stability predicate at every peer
	// (the paper's local checkability; ten times dearer than the oracle
	// check, so the repair workload runs it once per cycle).
	VerifyLocal() error
	Serve(ctx context.Context, c serveConfig) (serveResult, error)
	// RepairWindows returns, for every churn event Serve has raced so
	// far, the time from its application to the network's re-settling
	// (nil from the facade, which does not time them).
	RepairWindows() []time.Duration
	Metrics() obs.Snapshot
}

// systemFactory builds a system: topology "stable" or "random". unit
// is the rep the build belongs to (span bookkeeping).
type systemFactory func(topology string, n int, seed int64, unit int) (system, error)

func digestServe(ops, errs, notFound, fallbacks, churned int, elapsed time.Duration,
	lat, hops *stats.Histogram, hits, misses, opsFP, storeFP uint64) serveResult {
	return serveResult{
		Ops: ops, Errors: errs, NotFound: notFound, Fallbacks: fallbacks,
		Elapsed: elapsed, ChurnApplied: churned,
		P50: lat.Percentile(50), P99: lat.Percentile(99), P999: lat.Percentile(99.9),
		LatMean: lat.Mean(), HopsMean: hops.Mean(),
		CacheHits: hits, CacheMisses: misses, OpsFP: opsFP, StoreFP: storeFP,
	}
}

// ---- the public facade (untraced) ---------------------------------

type facadeSystem struct{ c *cluster.Cluster }

func facadeFactory(workers int) systemFactory {
	return func(topology string, n int, seed int64, _ int) (system, error) {
		c, err := cluster.New(cluster.WithSize(n), cluster.WithTopology(topology),
			cluster.WithSeed(seed), cluster.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		return facadeSystem{c}, nil
	}
}

func (f facadeSystem) Mark(int) {}

func (f facadeSystem) Stabilize(ctx context.Context) (int, error) {
	rep, err := f.c.Stabilize(ctx)
	return rep.Rounds, err
}

func (f facadeSystem) Join(ctx context.Context) (ident.ID, error) {
	p, err := f.c.Join(ctx)
	return ident.ID(p), err
}

func (f facadeSystem) Leave(ctx context.Context, id ident.ID) error {
	return f.c.Leave(ctx, cluster.PeerID(id))
}

func (f facadeSystem) Fail(ctx context.Context, id ident.ID) error {
	return f.c.Fail(ctx, cluster.PeerID(id))
}

func (f facadeSystem) Peers() []ident.ID {
	ps := f.c.Peers()
	out := make([]ident.ID, len(ps))
	for i, p := range ps {
		out[i] = ident.ID(p)
	}
	return out
}

func (f facadeSystem) VerifyStable() error { return f.c.VerifyStable() }

func (f facadeSystem) VerifyLocal() error {
	if ok, total := f.c.LocallyStable(); ok != total {
		return fmt.Errorf("locally stable %d/%d", ok, total)
	}
	return nil
}

func (f facadeSystem) Serve(ctx context.Context, c serveConfig) (serveResult, error) {
	rep, err := f.c.RunWorkload(ctx, cluster.WorkloadConfig{
		Workers: clients, Ops: c.Ops, Keyspace: c.Keyspace, Preload: c.Preload,
		Distribution: cluster.DistZipf, Seed: c.Seed, ChurnEvents: c.Churn,
	})
	if rep == nil {
		return serveResult{}, err
	}
	return digestServe(rep.Ops, rep.Errors, rep.NotFound, rep.Fallbacks, rep.ChurnApplied, rep.Elapsed,
		rep.Latency, rep.Hops, rep.CacheHits, rep.CacheMisses, rep.OpsFingerprint, rep.StoreFingerprint), err
}

func (f facadeSystem) RepairWindows() []time.Duration { return nil }

func (f facadeSystem) Metrics() obs.Snapshot { return f.c.Metrics() }

// ---- the layers composed directly (traced) ------------------------

// layeredSystem mirrors what cluster.New, Join, Leave, Fail, Stabilize
// and RunWorkload do with the layers — same calls, same order, same
// draws from the seeded stream — with a span around each call and the
// scheduler decorator between the runners and the engine. If the
// facade drifts from this mirror, the traced pass stops reproducing
// the untraced pass's counts and the run fails.
type layeredSystem struct {
	rec   *recorder
	unit  int
	nw    *rechord.Network
	sched *tracedScheduler
	cache *routing.Cache
	store *dht.Store
	rng   *rand.Rand
	homes []ident.ID
	met   *obs.WorkloadMetrics

	fallbacks atomic.Int64

	// churn-driver callbacks stamp the repair windows of a Serve call.
	winMu   sync.Mutex
	applied time.Time // the event being repaired
	windows []time.Duration
}

func layeredFactory(rec *recorder, workers int) systemFactory {
	return func(topology string, n int, seed int64, unit int) (system, error) {
		rcfg := rechord.Config{Workers: workers}
		rng := rand.New(rand.NewSource(seed))
		s := &layeredSystem{rec: rec, rng: rng, unit: unit}
		if topology == cluster.TopologyStable {
			id := rec.begin("churn.stable_network", 0, unit)
			nw, _, err := churn.StableNetwork(context.Background(), n, rng, rcfg)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			s.nw = nw
		} else {
			ids := topogen.RandomIDs(n, rng)
			id := rec.begin("topogen.build", 0, unit)
			s.nw = topogen.Random().Build(ids, rng, rcfg)
			rec.end(id)
		}
		s.homes = s.nw.Peers()
		s.met = obs.NewWorkloadMetrics(8, "get", "put", "delete", "lookup")
		s.sched = &tracedScheduler{Scheduler: s.nw, rec: rec}
		s.cache = routing.NewCache(s.nw)
		s.store = dht.NewWithResolver(s.nw, failoverResolver{
			cache: s.cache, walk: routing.Walker{NW: s.nw}, fallbacks: &s.fallbacks})
		return s, nil
	}
}

// span times fn as a child of parent.
func (s *layeredSystem) span(name string, parent spanID, fn func()) {
	id := s.rec.begin(name, parent, s.unit)
	fn()
	s.rec.end(id)
}

func (s *layeredSystem) Mark(unit int) { s.unit = unit }

// settle is the tail Stabilize and RunWorkload share in the facade.
func (s *layeredSystem) settle(parent spanID) error {
	var err error
	s.span("dht.rebalance", parent, func() { _, err = s.store.Rebalance() })
	s.span("routing.prune", parent, func() { s.cache.Prune() })
	return err
}

func (s *layeredSystem) Stabilize(ctx context.Context) (int, error) {
	top := s.rec.begin("cluster.stabilize", 0, s.unit)
	defer s.rec.end(top)
	run := s.rec.begin("sim.run", top, s.unit)
	s.sched.parent, s.sched.unit = run, s.unit
	res := sim.Run(ctx, s.sched, sim.Options{})
	s.rec.end(run)
	if !res.Stable {
		return res.Rounds, fmt.Errorf("not stable after %d rounds", res.Rounds)
	}
	return res.Rounds, s.settle(top)
}

func (s *layeredSystem) Join(context.Context) (ident.ID, error) {
	var id ident.ID
	for {
		id = ident.ID(s.rng.Uint64() | 1)
		if s.nw.Peer(id) == nil {
			break
		}
	}
	contact := s.homes[s.rng.Intn(len(s.homes))]
	var err error
	s.span("churn.apply", 0, func() { err = s.nw.Join(id, contact) })
	s.homes = s.nw.Peers()
	return id, err
}

func (s *layeredSystem) Leave(_ context.Context, id ident.ID) error {
	var err error
	s.span("churn.apply", 0, func() { err = s.nw.Leave(id) })
	s.homes = s.nw.Peers()
	return err
}

func (s *layeredSystem) Fail(_ context.Context, id ident.ID) error {
	var err error
	s.span("churn.apply", 0, func() { err = s.nw.Fail(id) })
	s.homes = s.nw.Peers()
	return err
}

func (s *layeredSystem) Peers() []ident.ID { return s.homes }

func (s *layeredSystem) VerifyStable() error {
	var ideal *rechord.Ideal
	var err error
	s.span("rechord.compute_ideal", 0, func() { ideal = rechord.ComputeIdeal(s.nw.Peers()) })
	s.span("rechord.matches", 0, func() { err = ideal.Matches(s.nw) })
	// What sim.Run spends on its final graph export, seen in isolation.
	s.span("sim.measure", 0, func() { sim.Measure(s.nw) })
	return err
}

func (s *layeredSystem) VerifyLocal() error {
	if ok, total := s.nw.CountLocallyStable(), s.nw.NumPeers(); ok != total {
		return fmt.Errorf("locally stable %d/%d", ok, total)
	}
	return nil
}

func (s *layeredSystem) Serve(ctx context.Context, c serveConfig) (serveResult, error) {
	top := s.rec.begin("workload.run", 0, s.unit)
	defer s.rec.end(top)
	s.sched.parent, s.sched.unit = top, s.unit
	res, err := workload.Run(ctx, s.sched, workload.Config{
		Workers: clients, Ops: c.Ops, Keyspace: c.Keyspace, Preload: c.Preload,
		Distribution: workload.DistZipf, Seed: c.Seed,
		Cache: s.cache, Obs: s.met,
		Churn: workload.ChurnConfig{
			Events: c.Churn,
			OnApply: func(churn.Event) {
				s.winMu.Lock()
				s.applied = time.Now()
				s.winMu.Unlock()
			},
			OnSettle: func(int) {
				s.winMu.Lock()
				s.windows = append(s.windows, time.Since(s.applied))
				s.winMu.Unlock()
			},
		},
	})
	if res == nil {
		return serveResult{}, err
	}
	s.homes = s.nw.Peers()
	if !s.sched.Quiescent() {
		sim.Run(ctx, s.sched, sim.Options{})
	}
	if serr := s.settle(top); serr != nil && err == nil {
		err = serr
	}
	return digestServe(res.Ops, res.Errors, res.NotFound, res.Fallbacks, res.ChurnApplied, res.Elapsed,
		res.Latency, res.Hops, res.CacheHits, res.CacheMisses, res.OpsFingerprint, res.StoreFingerprint), err
}

func (s *layeredSystem) RepairWindows() []time.Duration { return s.windows }

func (s *layeredSystem) Metrics() obs.Snapshot {
	snap := obs.Snapshot{Engine: s.nw.Obs().Snapshot()}
	snap.Routing.CacheHits, snap.Routing.CacheMisses = s.cache.Stats()
	snap.Routing.CacheInvalidations = s.cache.Invalidations()
	snap.Routing.Fallbacks = s.fallbacks.Load()
	return snap
}
