package obs

import "testing"

// BenchmarkObsHotPath is the telemetry layer's own regression gate,
// diffed by CI's bench-diff job with allocs pinned at zero: one
// counter add, one gauge move, and one sharded-histogram observation,
// plus what the workload engine pays per operation on its sharded
// metrics — the in-flight gauge's two moves and a counter add on the
// writer's own shard — must stay allocation-free and a handful of
// nanoseconds.
func BenchmarkObsHotPath(b *testing.B) {
	var c Counter
	var g Gauge
	sc := NewShardedCounter(4)
	sg := NewShardedGauge(4)
	sh := NewShardedHist(4)
	for s := 0; s < 4; s++ {
		sh.Observe(s, 1023) // pre-grow every shard's bucket slice off the timed path
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Add(1)
		sg.Add(i, 1)
		sc.Inc(i)
		sh.Observe(i, float64(i&1023))
		sg.Add(i, -1)
		g.Add(-1)
	}
}
