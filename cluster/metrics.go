package cluster

import (
	"context"
	"math/rand"

	"repro/internal/dht"
	"repro/internal/obs"
)

// Facade op indices into the workload metrics' per-op slots; the order
// matches the op names New passes to obs.NewWorkloadMetrics.
const (
	opGet = iota
	opPut
	opDelete
	opLookup
)

// MetricsSnapshot is the cluster's structured telemetry snapshot:
// engine counters and per-phase barrier timings, routing-cache
// counters and the lookup-hop distribution, serving-path workload
// metrics, and the event-stream drop counter. It marshals to stable
// JSON (the /metrics endpoint and the largescale artifact both emit
// it verbatim).
type MetricsSnapshot = obs.Snapshot

// LookupTrace is one lookup's hop-by-hop record; see TraceLookup.
type LookupTrace = obs.LookupTrace

// Metrics returns the live telemetry snapshot. It is lock-free with
// respect to the cluster's operation lock: every source is an atomic
// counter or a per-shard histogram behind its own short mutex, so the
// call is safe (and cheap) concurrently with a running workload,
// mid-stabilization, or from a scrape handler — it never blocks the
// serving path and the serving path never blocks it.
func (c *Cluster) Metrics() MetricsSnapshot {
	s := MetricsSnapshot{
		Engine:        c.nw.Obs().Snapshot(),
		Workload:      c.met.Snapshot(),
		EventsDropped: c.bus.dropped.Load(),
	}
	s.Routing.CacheHits, s.Routing.CacheMisses = c.cache.Stats()
	s.Routing.CacheInvalidations = c.cache.Invalidations()
	s.Routing.CacheEntries = c.cache.Len()
	s.Routing.LookupHops = obs.SummarizeHist(c.met.Hops.Merged())
	return s
}

// TraceLookup routes the key from a round-robin home peer to its owner
// like Lookup, but returns the full per-lookup trace: the hop-by-hop
// path, how many published tables it read, and — under WithAsync — the
// simulated per-hop delivery delays the configured delay model assigns
// to the path's links (drawn from a key-seeded stream, so the same
// lookup traces the same delays).
func (c *Cluster) TraceLookup(ctx context.Context, key string) (*LookupTrace, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	from := c.home()
	kid := dht.KeyID(key)
	tr := &LookupTrace{}
	if _, _, err := c.cache.View().ResolveTraced(from, kid, tr); err != nil {
		return tr, opError("trace", key, err)
	}
	if c.cfg.async && len(tr.Path) > 1 {
		delay := c.cfg.asyncDelay
		if delay == nil {
			delay = DelayUniform(1)
		}
		rng := rand.New(rand.NewSource(c.cfg.seed ^ int64(kid)))
		tr.DelaySteps = make([]int, len(tr.Path)-1)
		for i := range tr.DelaySteps {
			tr.DelaySteps[i] = delay.Delay(rng, tr.Path[i], tr.Path[i+1])
		}
	}
	return tr, nil
}

// observeKV mirrors one facade KV operation into the live workload
// metrics. The facade's single-op methods record no latency — those
// histograms measure the traffic engine's serving path, where per-op
// timing is taken; a facade call's wall time is dominated by the caller.
func (c *Cluster) observeKV(kind int, hops int, err error) {
	c.met.ObserveOp(0, kind, hops, dht.Outcome(err), -1)
}
