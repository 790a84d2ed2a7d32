package obs

// WorkloadMetrics is the serving path's live metric set: an in-flight
// gauge, an error taxonomy, and sharded latency/hop histograms that
// concurrent workers write without contending. The workload engine
// and the cluster facade's KV methods feed it through ObserveOp;
// readers merge shards lazily via Snapshot. Construct with
// NewWorkloadMetrics; the instance is long-lived and cumulative
// across workload runs.
type WorkloadMetrics struct {
	// InFlight is the number of operations currently executing.
	InFlight Gauge
	// Ops counts completed operations (successful or not).
	Ops Counter
	// Error taxonomy. NotFound is a semantic miss (the key has no
	// value at its owner), UnknownPeer a request through a departed
	// home, RouteErrors everything else the routing layer refused.
	NotFound    Counter
	UnknownPeer Counter
	RouteErrors Counter
	// LatencyNS and Hops are the aggregate distributions over all op
	// types (latency in nanoseconds; hops as defined by PathHops).
	LatencyNS *ShardedHist
	Hops      *ShardedHist

	perOp []OpMetrics
}

// OpMetrics is one op type's slice of the workload metrics.
type OpMetrics struct {
	Name      string
	Ops       Counter
	Errors    Counter
	LatencyNS *ShardedHist
	Hops      *ShardedHist
}

// NewWorkloadMetrics builds a metric set with the given histogram
// shard count and one OpMetrics per name (e.g. "get", "put",
// "delete").
func NewWorkloadMetrics(shards int, opNames ...string) *WorkloadMetrics {
	m := &WorkloadMetrics{
		LatencyNS: NewShardedHist(shards),
		Hops:      NewShardedHist(shards),
		perOp:     make([]OpMetrics, len(opNames)),
	}
	for i, name := range opNames {
		m.perOp[i] = OpMetrics{
			Name:      name,
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
// instead), its hop count. It observes into the shard's histograms, so
// concurrent workers with shards of their own never contend. A negative
// latNS records no latency (the facade's single-op methods pass one).
func (m *WorkloadMetrics) ObserveOp(shard, kind, hops int, out Outcome, latNS float64) {
	m.Ops.Inc()
	op := &m.perOp[kind]
	op.Ops.Inc()
	if latNS >= 0 {
		m.LatencyNS.Observe(shard, latNS)
		op.LatencyNS.Observe(shard, latNS)
	}
	switch out {
	case OpNotFound:
		m.NotFound.Inc()
	case OpUnknownPeer:
		m.UnknownPeer.Inc()
		op.Errors.Inc()
		return
	case OpRouteError:
		m.RouteErrors.Inc()
		op.Errors.Inc()
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
