package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topogen"
)

// PeerID identifies a peer: a point on the identifier circle [0, 1)
// represented as a 64-bit fixed-point fraction.
type PeerID uint64

// String renders the identifier the way the rest of the system does.
func (p PeerID) String() string { return ident.ID(p).String() }

func (p PeerID) id() ident.ID { return ident.ID(p) }

// RoundMetrics is one round's topology snapshot (re-exported from the
// metrics layer: real/virtual node and per-kind edge counts).
type RoundMetrics = sim.RoundMetrics

// Histogram is the mergeable streaming histogram the telemetry uses
// (re-exported so reports can be post-processed without reaching into
// internal packages).
type Histogram = stats.Histogram

// Cluster is a live Re-Chord system behind one coherent API: the round
// engine, the router's published view, the sharded store, and the
// traffic engine, wired once.
type Cluster struct {
	cfg config

	// mu serializes network mutation (lifecycle, stabilization, write
	// side) against the KV operations (read side). Mutators publish the
	// router's view (cache.Publish) before they release it; the KV
	// methods route on that view and read nothing else of the network.
	mu    sync.RWMutex
	nw    *rechord.Network
	sched rechord.Scheduler // the execution model: nw itself, or an async runner
	store *dht.Store
	cache *routing.Cache
	rng   *rand.Rand // guarded by mu (write side)

	homeCtr atomic.Uint64
	closed  atomic.Bool
	bus     eventBus

	// met is the cluster's long-lived serving-path metrics set, shared
	// by the facade KV methods and every RunWorkload call so Metrics()
	// accumulates across runs. It is read without mu; see Metrics.
	met *obs.WorkloadMetrics
}

// New builds a cluster from the options. The default is 32 peers,
// seed 1, already settled in the unique stable topology; non-stable
// topologies come back un-stabilized and need one Stabilize(ctx) call
// (KV calls return ErrNoRoute until then).
// Construction errors match ErrConfig (bad options) or ErrUnstable (the
// seeded stable state failed verification).
func New(opts ...Option) (*Cluster, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rcfg := rechord.Config{Workers: cfg.workers}
	rng := rand.New(rand.NewSource(cfg.seed))
	var nw *rechord.Network
	if cfg.topology == TopologyStable {
		var err error
		nw, _, err = churn.StableNetwork(context.Background(), cfg.size, rng, rcfg)
		if err != nil {
			return nil, fmt.Errorf("%w: seeding the stable topology: %v", ErrUnstable, err)
		}
	} else {
		ids := topogen.RandomIDs(cfg.size, rng)
		nw = generators()[cfg.topology].Build(ids, rng, rcfg)
	}

	c := &Cluster{cfg: cfg, nw: nw, rng: rng}
	// Histogram shards cover the widest worker pool a workload run may
	// use plus the facade's own slot; extra shards only cost idle
	// zero-value histograms.
	c.met = obs.NewWorkloadMetrics(8, "get", "put", "delete", "lookup")
	c.sched = nw
	if cfg.async {
		// The asynchronous scheduler draws from its own seed-derived
		// stream, so sync and async clusters built from the same seed
		// share identifiers and topology.
		c.sched = rechord.NewAsyncRunner(nw, rechord.AsyncConfig{
			ActivationProb: cfg.asyncProb,
			Delay:          cfg.asyncDelay,
		}, rand.New(rand.NewSource(cfg.seed^0x55AA55AA)))
	}
	c.cache = routing.NewCache(nw)
	if cfg.topology == TopologyStable {
		// A settled cluster serves at once; any other topology has no
		// tables worth routing on until its first Stabilize publishes.
		c.cache.Publish()
	}
	c.store = dht.NewWithResolver(nw, routing.ViewResolver{Cache: c.cache})
	return c, nil
}

// ready gates every operation on the cluster being open and the
// context not already done.
func (c *Cluster) ready(ctx context.Context) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// members is the current membership in ascending order, as published:
// never empty while the cluster is open. Callers hold mu (either side).
func (c *Cluster) members() []ident.ID { return c.cache.View().Peers() }

// home picks the next home peer round-robin. Callers hold mu (either
// side).
func (c *Cluster) home() ident.ID {
	homes := c.members()
	return homes[(c.homeCtr.Add(1)-1)%uint64(len(homes))]
}

// clock returns the scheduler's unit-agnostic time — rounds under the
// synchronous model, steps under the asynchronous one — for event
// stamps. Callers hold mu (either side).
func (c *Cluster) clock() int { return c.sched.Time() }

// Close shuts the cluster down: every subscriber channel is closed and
// every subsequent operation returns ErrClosed. Close is idempotent.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.bus.close()
	return nil
}

// Subscribe returns a stream of cluster events and a cancel function.
// buf is the channel's buffer (default 16 when <= 0); events that do
// not fit are dropped for that subscriber, never blocking the cluster.
func (c *Cluster) Subscribe(buf int) (<-chan Event, func()) {
	return c.bus.subscribe(buf)
}

// EventsDropped returns how many events were dropped across all
// subscribers because their buffers were full.
func (c *Cluster) EventsDropped() uint64 { return c.bus.dropped.Load() }

// ---- Lifecycle ----------------------------------------------------

// Join adds a fresh peer with a seed-derived random identifier,
// introduced to one random existing peer (the paper's join: "a peer
// connects to one peer in the network"), and returns its identifier.
// The network is left un-stabilized; call Stabilize to repair it. KV
// calls made before that route on the view published here: the old ring
// still routes every key, so none fails (0 of 12,000 measured at n = 64
// and n = 512), but a lookup whose home is the joiner, who knows one
// contact, can name a wrong owner.
func (c *Cluster) Join(ctx context.Context) (PeerID, error) {
	if err := c.ready(ctx); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var id ident.ID
	for {
		id = ident.ID(c.rng.Uint64() | 1)
		if c.nw.Peer(id) == nil {
			break
		}
	}
	homes := c.members()
	contact := homes[c.rng.Intn(len(homes))]
	if err := c.applyEvent(churn.Event{Kind: churn.Join, ID: id, Contact: contact}); err != nil {
		return 0, err
	}
	return PeerID(id), nil
}

// Leave removes the peer gracefully: its virtual nodes introduce their
// neighbors to one another before departing. The network is left
// un-stabilized; call Stabilize to repair it. Until then the published
// tables still name the departed peer, and a KV call whose lookup
// crosses it returns ErrNoRoute: 5.1 % of lookups at n = 64, 1.1 % at
// n = 512 (TestMidRepairLookupOutcomes; DESIGN section 4).
func (c *Cluster) Leave(ctx context.Context, p PeerID) error {
	return c.depart(ctx, p, churn.Leave)
}

// Fail crashes the peer: no goodbyes, its edges dangle until the
// repair rules purge them. The network is left un-stabilized; call
// Stabilize to repair it. Until then a KV call whose lookup crosses the
// crashed peer returns ErrNoRoute: 4.6 % of lookups at n = 64, 0.8 % at
// n = 512 (TestMidRepairLookupOutcomes; DESIGN section 4).
func (c *Cluster) Fail(ctx context.Context, p PeerID) error {
	return c.depart(ctx, p, churn.Fail)
}

func (c *Cluster) depart(ctx context.Context, p PeerID, kind churn.Kind) error {
	if err := c.ready(ctx); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.members()) <= 1 {
		return fmt.Errorf("%w: cannot remove the last peer %s", ErrConfig, p)
	}
	return c.applyEvent(churn.Event{Kind: kind, ID: p.id()})
}

// StabilizeReport is the outcome of one Stabilize call.
type StabilizeReport struct {
	// Stable reports whether the global fixed point was reached.
	Stable bool
	// Rounds is the number of rounds up to the last state change.
	Rounds int
	// AlmostStableRound is the first round after which every desired
	// edge existed; -1 when not observed or not tracked.
	AlmostStableRound int
	// Messages counts all protocol messages across the run.
	Messages int
	// Series holds per-round metrics when requested.
	Series []RoundMetrics
}

type stabilizeOpts struct {
	maxRounds    int
	series       bool
	almostStable bool
}

// StabilizeOption tunes one Stabilize call.
type StabilizeOption func(*stabilizeOpts)

// StabilizeMaxRounds bounds the run (0 = a generous default derived
// from the network size, comfortably above the paper's O(n log n)).
func StabilizeMaxRounds(n int) StabilizeOption {
	return func(o *stabilizeOpts) { o.maxRounds = n }
}

// StabilizeSeries records per-round metrics into the report.
func StabilizeSeries() StabilizeOption {
	return func(o *stabilizeOpts) { o.series = true }
}

// StabilizeAlmostStable tracks the paper's "almost stable" state (the
// first round after which every desired edge exists), at the cost of
// computing the oracle topology for the current membership.
func StabilizeAlmostStable() StabilizeOption {
	return func(o *stabilizeOpts) { o.almostStable = true }
}

// Stabilize runs repair rounds until the global state reaches its
// fixed point, the round budget is exhausted, or the context is done.
// On success the store is rebalanced onto the (possibly changed)
// ownership and the departed peers' routing tables are pruned, a
// region-settled event is published, and — when any peer's state changed — an
// epoch-bumped event too. Cancellation returns ctx.Err() with the
// network left at a round barrier (resume by calling Stabilize again);
// an exhausted budget returns ErrUnstable.
func (c *Cluster) Stabilize(ctx context.Context, opts ...StabilizeOption) (StabilizeReport, error) {
	var o stabilizeOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := c.ready(ctx); err != nil {
		return StabilizeReport{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	epoch0 := c.nw.EpochClock()
	simOpt := sim.Options{MaxRounds: o.maxRounds, TrackSeries: o.series}
	if o.almostStable {
		simOpt.Ideal = rechord.ComputeIdeal(c.nw.Peers())
	}
	res := sim.Run(ctx, c.sched, simOpt)
	c.cache.Publish()
	rep := StabilizeReport{
		Stable:            res.Stable,
		Rounds:            res.Rounds,
		AlmostStableRound: res.AlmostStableRound,
		Messages:          res.TotalMessages,
		Series:            res.Series,
	}
	if epoch := c.nw.EpochClock(); epoch != epoch0 {
		c.bus.publish(Event{Kind: EventEpochBumped, Epoch: epoch, Round: c.clock()})
	}
	if res.Canceled {
		return rep, ctx.Err()
	}
	if !res.Stable {
		return rep, fmt.Errorf("%w: %d peers still repairing after %d steps", ErrUnstable, c.nw.NumPeers(), res.Rounds)
	}
	if _, err := c.store.Rebalance(); err != nil {
		return rep, fmt.Errorf("%w: rebalance: %v", ErrUnknownPeer, err)
	}
	c.cache.Prune()
	c.bus.publish(Event{Kind: EventRegionSettled, Rounds: rep.Rounds, Peers: c.nw.NumPeers(), Round: c.clock()})
	return rep, nil
}

// Quiescent reports whether the execution is at its global fixed
// point: no peer's inputs changed since it last reached a local fixed
// point, and (under the asynchronous model) no delivery still in
// flight — an O(1) check on the incremental engine.
func (c *Cluster) Quiescent() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sched.Quiescent()
}

// ---- KV -----------------------------------------------------------

// Put stores the key-value pair, routed over the overlay from a
// round-robin home peer to the key's owner.
func (c *Cluster) Put(ctx context.Context, key, value string) error {
	if err := c.ready(ctx); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, hops, err := c.store.Put(c.home(), key, value)
	c.observeKV(opPut, hops, err)
	return opError("put", key, err)
}

// Get fetches the value for the key. A missing key returns ErrNotFound
// (routing reached the owner, the key is absent there); ErrNoRoute
// means the lookup could not complete and nothing is known.
func (c *Cluster) Get(ctx context.Context, key string) (string, error) {
	if err := c.ready(ctx); err != nil {
		return "", err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, hops, err := c.store.Get(c.home(), key)
	c.observeKV(opGet, hops, err)
	return v, opError("get", key, err)
}

// Delete removes the key, reporting whether it existed.
func (c *Cluster) Delete(ctx context.Context, key string) (bool, error) {
	if err := c.ready(ctx); err != nil {
		return false, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	existed, hops, err := c.store.Delete(c.home(), key)
	c.observeKV(opDelete, hops, err)
	return existed, opError("delete", key, err)
}

// Lookup routes the key from a round-robin home peer to its owner
// without touching stored data, returning the owner and the number of
// inter-peer hops the lookup took.
func (c *Cluster) Lookup(ctx context.Context, key string) (PeerID, int, error) {
	if err := c.ready(ctx); err != nil {
		return 0, 0, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	owner, hops, err := c.store.ResolveKey(c.home(), key)
	c.observeKV(opLookup, hops, err)
	if err != nil {
		return 0, hops, opError("lookup", key, err)
	}
	return PeerID(owner), hops, nil
}

// Owner returns the peer a key belongs to under consistent hashing —
// the successor of the key's identifier on the current membership.
func (c *Cluster) Owner(key string) PeerID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return PeerID(ident.Successor(c.members(), dht.KeyID(key)))
}

// Keys returns the number of stored key-value pairs.
func (c *Cluster) Keys() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.store.Len()
}

// ---- Introspection ------------------------------------------------

// Peers returns the current membership in increasing identifier order.
func (c *Cluster) Peers() []PeerID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	homes := c.members()
	out := make([]PeerID, len(homes))
	for i, id := range homes {
		out[i] = PeerID(id)
	}
	return out
}

// Size returns the number of peers.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nw.NumPeers()
}

// Round returns the number of synchronous protocol rounds executed so
// far. Under WithAsync this counter does not advance; see Steps.
func (c *Cluster) Round() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nw.Round()
}

// Steps returns the scheduler's clock: rounds under the synchronous
// model, asynchronous steps under WithAsync. Event stream timestamps
// (Event.Round) use this clock.
func (c *Cluster) Steps() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sched.Time()
}

// ExecutionModel reports which execution model the cluster runs:
// "sync" (the paper's synchronous rounds) or "async" (the event-driven
// asynchronous scheduler configured by WithAsync).
func (c *Cluster) ExecutionModel() string {
	if c.cfg.async {
		return "async"
	}
	return "sync"
}

// InFlight returns the number of protocol messages currently in
// flight: standing repeating flows, one-shot deliveries, and (under
// WithAsync) messages inside pending delayed deliveries.
func (c *Cluster) InFlight() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sched.InFlight()
}

// Topology returns the current topology snapshot: real and virtual
// node counts and per-kind edge counts. (Telemetry counters moved to
// Metrics, which returns the structured MetricsSnapshot.)
func (c *Cluster) Topology() RoundMetrics {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return sim.Measure(c.nw)
}

// VerifyStable checks the network against the oracle: the unique
// stable topology for the current membership. A deviation returns an
// error matching ErrUnstable with the first difference found.
func (c *Cluster) VerifyStable() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := rechord.ComputeIdeal(c.nw.Peers()).Matches(c.nw); err != nil {
		return fmt.Errorf("%w: %v", ErrUnstable, err)
	}
	return nil
}

// LocallyStable counts the peers whose purely local stability check
// passes (the paper's local checkability: at the fixed point all do).
func (c *Cluster) LocallyStable() (stable, total int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nw.CountLocallyStable(), c.nw.NumPeers()
}

// DOT renders the current overlay graph in Graphviz DOT format.
func (c *Cluster) DOT() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nw.Graph().DOT()
}
