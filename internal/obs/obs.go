// Package obs is the telemetry layer: allocation-free counters and
// gauges for the engine's hot path, cache-line-padded sharded counters
// and gauges and mutex-sharded histograms for the concurrent serving
// path, and JSON-ready snapshot types that every exposure surface
// (cluster.Metrics, the rechord-dht /metrics endpoint, the largescale
// METRICS_JSON artifact) shares.
//
// The design contract, enforced by BenchmarkObsHotPath and the CI
// bench-diff gate: recording on the hot path is a single atomic add
// (Counter, Gauge), an add on the writer's own shard (ShardedCounter,
// ShardedGauge), or one uncontended mutex acquisition plus a histogram
// bucket increment (Hist, ShardedHist) — never an allocation, never a
// map lookup, never formatting. All aggregation (summing and merging
// shards, computing percentiles, building snapshots) is lazy and
// happens only when a reader asks. The round engine goes further: it
// tallies into plain shard-local integers inside a batch and flushes
// one atomic add per counter per batch (see rechord.Network.runBatch),
// so a quiescent Step pays exactly one atomic increment.
package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (in-flight operations, queue
// depths). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// cacheLine is the stride that keeps two shards' words on different
// cache lines, so writers on different shards never write the same line.
const cacheLine = 64

// shardIndex reduces any int, math.MinInt included, to a shard index in
// [0, n): the unsigned modulo needs no negation that could overflow.
func shardIndex(shard, n int) int { return int(uint(shard) % uint(n)) }

// ShardedCounter is a Counter split into cache-line-padded shards:
// concurrent writers that each add on a shard of their own never write
// a common cache line, and Value sums the shards.
type ShardedCounter struct {
	shards []counterShard
}

type counterShard struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// NewShardedCounter returns a counter with n shards (minimum 1).
func NewShardedCounter(n int) *ShardedCounter {
	return &ShardedCounter{shards: make([]counterShard, max(n, 1))}
}

// Add increments the counter by n on the writer's shard. Callers pass
// a stable per-writer index; any int is safe (reduced modulo the shard
// count).
func (c *ShardedCounter) Add(shard int, n uint64) {
	c.shards[shardIndex(shard, len(c.shards))].v.Add(n)
}

// Inc increments the counter by one on the writer's shard.
func (c *ShardedCounter) Inc(shard int) { c.Add(shard, 1) }

// Value returns the sum of the shards.
func (c *ShardedCounter) Value() uint64 {
	var v uint64
	for i := range c.shards {
		v += c.shards[i].v.Load()
	}
	return v
}

// ShardedGauge is a Gauge split into cache-line-padded shards, the
// gauge counterpart of ShardedCounter: a writer moves its own shard and
// Value sums them.
type ShardedGauge struct {
	shards []gaugeShard
}

type gaugeShard struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// NewShardedGauge returns a gauge with n shards (minimum 1).
func NewShardedGauge(n int) *ShardedGauge {
	return &ShardedGauge{shards: make([]gaugeShard, max(n, 1))}
}

// Add moves the writer's shard by d (negative to decrement); any int
// is a valid shard.
func (g *ShardedGauge) Add(shard int, d int64) {
	g.shards[shardIndex(shard, len(g.shards))].v.Add(d)
}

// Value returns the sum of the shards.
func (g *ShardedGauge) Value() int64 {
	var v int64
	for i := range g.shards {
		v += g.shards[i].v.Load()
	}
	return v
}

// Hist is a mutex-guarded stats.Histogram: safe for concurrent
// Observe and Snapshot, allocation-free after the first Observe (the
// histogram's bucket slice grows once, then stays). The zero value is
// ready to use. Writers that already serialize (the round engine's
// barrier) pay only an uncontended lock.
type Hist struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one value.
func (h *Hist) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Snapshot returns an independent copy of the histogram.
func (h *Hist) Snapshot() *stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Clone()
}

// Summary returns the headline figures of the histogram.
func (h *Hist) Summary() HistSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return SummarizeHist(&h.h)
}

// ShardedHist spreads observations over per-worker histogram shards so
// concurrent writers (workload workers) never contend on one mutex;
// readers merge the shards lazily. Merging stats.Histograms is exact —
// all shards share the same fixed bucket boundaries — so the merged
// view equals what a single observer would have recorded.
type ShardedHist struct {
	shards []Hist
}

// NewShardedHist returns a histogram with n shards (minimum 1).
func NewShardedHist(n int) *ShardedHist {
	if n < 1 {
		n = 1
	}
	return &ShardedHist{shards: make([]Hist, n)}
}

// Observe records v into the worker's shard. Callers pass a stable
// per-worker index; any int is safe (reduced modulo the shard count).
func (s *ShardedHist) Observe(worker int, v float64) {
	s.shards[shardIndex(worker, len(s.shards))].Observe(v)
}

// Merged folds every shard into one fresh histogram.
func (s *ShardedHist) Merged() *stats.Histogram {
	out := &stats.Histogram{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Merge(&sh.h)
		sh.mu.Unlock()
	}
	return out
}

// Summary returns the headline figures of the merged shards.
func (s *ShardedHist) Summary() HistSummary {
	return SummarizeHist(s.Merged())
}

// HistSummary is the JSON-ready digest of a histogram: the figures a
// dashboard or a CI artifact wants, without shipping raw buckets.
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p99_9"`
	Max   float64 `json:"max"`
}

// SummarizeHist digests a histogram (nil or empty yields zeros).
func SummarizeHist(h *stats.Histogram) HistSummary {
	if h == nil || h.N() == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: uint64(h.N()),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.Max(),
	}
}
