package obs

// WorkloadMetrics is the serving path's live metric set: an in-flight
// gauge, an error taxonomy, and latency/hop histograms, all sharded so
// that concurrent workers with shards of their own never contend (the
// counters and the gauge keep each shard on a cache line of its own).
// The workload engine and the cluster facade's KV methods feed it
// through ObserveOp; readers sum and merge shards lazily via Snapshot.
// Construct with NewWorkloadMetrics; the instance is long-lived and
// cumulative across workload runs.
type WorkloadMetrics struct {
	// InFlight is the number of operations currently executing.
	InFlight *ShardedGauge
	// Ops counts completed operations (successful or not).
	Ops *ShardedCounter
	// Error taxonomy. NotFound is a semantic miss (the key has no
	// value at its owner), UnknownPeer a request through a departed
	// home, RouteErrors everything else the routing layer refused.
	NotFound    *ShardedCounter
	UnknownPeer *ShardedCounter
	RouteErrors *ShardedCounter
	// LatencyNS and Hops are the aggregate distributions over all op
	// types (latency in nanoseconds; hops as defined by PathHops).
	LatencyNS *ShardedHist
	Hops      *ShardedHist

	perOp []OpMetrics
}

// OpMetrics is one op type's slice of the workload metrics.
type OpMetrics struct {
	Name      string
	Ops       *ShardedCounter
	Errors    *ShardedCounter
	LatencyNS *ShardedHist
	Hops      *ShardedHist
}

// NewWorkloadMetrics builds a metric set with the given shard count
// and one OpMetrics per name (e.g. "get", "put", "delete").
func NewWorkloadMetrics(shards int, opNames ...string) *WorkloadMetrics {
	m := &WorkloadMetrics{
		InFlight:    NewShardedGauge(shards),
		Ops:         NewShardedCounter(shards),
		NotFound:    NewShardedCounter(shards),
		UnknownPeer: NewShardedCounter(shards),
		RouteErrors: NewShardedCounter(shards),
		LatencyNS:   NewShardedHist(shards),
		Hops:        NewShardedHist(shards),
		perOp:       make([]OpMetrics, len(opNames)),
	}
	for i, name := range opNames {
		m.perOp[i] = OpMetrics{
			Name:      name,
			Ops:       NewShardedCounter(shards),
			Errors:    NewShardedCounter(shards),
			LatencyNS: NewShardedHist(shards),
			Hops:      NewShardedHist(shards),
		}
	}
	return m
}

// Outcome is how one operation ended, as the error taxonomy counts
// it. The caller classifies (dht.Outcome): this package does not know
// the store's errors.
type Outcome uint8

const (
	OpOK Outcome = iota
	OpNotFound
	OpUnknownPeer
	OpRouteError
)

// ObserveOp mirrors one completed operation of op type kind into the
// set: the op and taxonomy counters and, for an operation that reached
// an owner (a not-found did; a routing failure feeds the error taxonomy
// instead), its hop count. It adds and observes on the shard's own
// counters and histograms only, so concurrent workers with shards of
// their own never contend. A negative
// latNS records no latency (the facade's single-op methods pass one).
func (m *WorkloadMetrics) ObserveOp(shard, kind, hops int, out Outcome, latNS float64) {
	m.Ops.Inc(shard)
	op := &m.perOp[kind]
	op.Ops.Inc(shard)
	if latNS >= 0 {
		m.LatencyNS.Observe(shard, latNS)
		op.LatencyNS.Observe(shard, latNS)
	}
	switch out {
	case OpNotFound:
		m.NotFound.Inc(shard)
	case OpUnknownPeer:
		m.UnknownPeer.Inc(shard)
		op.Errors.Inc(shard)
		return
	case OpRouteError:
		m.RouteErrors.Inc(shard)
		op.Errors.Inc(shard)
		return
	}
	m.Hops.Observe(shard, float64(hops))
	op.Hops.Observe(shard, float64(hops))
}

// WorkloadSnapshot is the JSON form of WorkloadMetrics.
type WorkloadSnapshot struct {
	InFlight    int64        `json:"in_flight"`
	Ops         uint64       `json:"ops"`
	NotFound    uint64       `json:"not_found"`
	UnknownPeer uint64       `json:"unknown_peer"`
	RouteErrors uint64       `json:"route_errors"`
	LatencyNS   HistSummary  `json:"latency_ns"`
	Hops        HistSummary  `json:"hops"`
	PerOp       []OpSnapshot `json:"per_op,omitempty"`
}

// OpSnapshot is the JSON form of one op type's metrics.
type OpSnapshot struct {
	Name      string      `json:"name"`
	Ops       uint64      `json:"ops"`
	Errors    uint64      `json:"errors"`
	LatencyNS HistSummary `json:"latency_ns"`
	Hops      HistSummary `json:"hops"`
}

// Snapshot digests the metric set. Nil-safe (a nil receiver yields
// the zero snapshot), so callers without a workload layer can embed
// the result unconditionally.
func (m *WorkloadMetrics) Snapshot() WorkloadSnapshot {
	if m == nil {
		return WorkloadSnapshot{}
	}
	s := WorkloadSnapshot{
		InFlight:    m.InFlight.Value(),
		Ops:         m.Ops.Value(),
		NotFound:    m.NotFound.Value(),
		UnknownPeer: m.UnknownPeer.Value(),
		RouteErrors: m.RouteErrors.Value(),
		LatencyNS:   m.LatencyNS.Summary(),
		Hops:        m.Hops.Summary(),
	}
	for i := range m.perOp {
		op := &m.perOp[i]
		s.PerOp = append(s.PerOp, OpSnapshot{
			Name:      op.Name,
			Ops:       op.Ops.Value(),
			Errors:    op.Errors.Value(),
			LatencyNS: op.LatencyNS.Summary(),
			Hops:      op.Hops.Summary(),
		})
	}
	return s
}
