package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ident"
	"repro/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Add(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

// TestShardedHistMergeExact pins the sharding contract: observations
// spread over shards merge to exactly what a single histogram would
// have recorded.
func TestShardedHistMergeExact(t *testing.T) {
	sh := NewShardedHist(4)
	want := &stats.Histogram{}
	for i := 0; i < 1000; i++ {
		v := float64(i * 7 % 911)
		sh.Observe(i, v)
		want.Observe(v)
	}
	got := sh.Merged()
	if got.N() != want.N() || got.Mean() != want.Mean() || got.Max() != want.Max() ||
		got.Percentile(99) != want.Percentile(99) {
		t.Fatalf("merged shards = %v, want %v", got, want)
	}
}

func TestShardedHistConcurrent(t *testing.T) {
	sh := NewShardedHist(8)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sh.Observe(w, float64(i))
				if i%100 == 0 {
					_ = sh.Summary()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := sh.Merged().N(); got != 16*500 {
		t.Fatalf("merged N = %d, want %d", got, 16*500)
	}
}

func TestPathHops(t *testing.T) {
	cases := []struct {
		path []ident.ID
		want int
	}{
		{nil, 0},
		{[]ident.ID{1}, 0},
		{[]ident.ID{1, 2}, 1},
		{[]ident.ID{1, 2, 3, 4}, 3},
	}
	for _, c := range cases {
		if got := PathHops(c.path); got != c.want {
			t.Errorf("PathHops(%v) = %d, want %d", c.path, got, c.want)
		}
	}
}

func TestLookupTraceString(t *testing.T) {
	tr := &LookupTrace{
		From: 1, Key: 10, Owner: 3,
		Path:       []ident.ID{1, 2, 3},
		CacheHits:  2,
		DelaySteps: []int{1, 2},
	}
	if tr.Hops() != 2 {
		t.Fatalf("hops = %d, want 2", tr.Hops())
	}
	if tr.TotalDelay() != 3 {
		t.Fatalf("total delay = %d, want 3", tr.TotalDelay())
	}
	s := tr.String()
	for _, want := range []string{"2 hops", "2 cached tables", "delay 3 steps"} {
		if !contains(s, want) {
			t.Errorf("trace string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// sampleSnapshot builds a snapshot with every field populated, so the
// round-trip test covers the full shape.
func sampleSnapshot() Snapshot {
	var em EngineMetrics
	em.Steps.Add(100)
	em.Batches.Add(40)
	em.Activated.Add(900)
	em.Woken.Add(12)
	em.Delivered.Add(3000)
	em.BucketOps.Add(400)
	em.DepDeltas.Add(600)
	em.Purges.Add(700)
	em.PurgesSkipped.Add(200)
	em.Settled.Add(800)
	em.Unsettled.Add(100)
	em.EpochBumps.Add(7)
	em.AsyncDeliveries.Add(5)
	for i := range em.RuleFired {
		em.RuleFired[i].Add(uint64(10 * (i + 1)))
	}
	for _, h := range []*Hist{&em.PhaseDeliver, &em.PhaseExecute, &em.PhasePrepare, &em.PhasePublish, &em.PhaseReroute} {
		h.Observe(1000)
		h.Observe(2000)
	}
	em.FlowContribs.Set(42)
	em.FlowResidentBytes.Set(81920)
	em.FlowSharedBytes.Set(65536)
	em.FlowUniqueBytes.Set(4096)
	em.FlowInstallsShared.Set(300)
	em.FlowInstallsCopied.Set(100)

	wm := NewWorkloadMetrics(2, "get", "put")
	wm.InFlight.Add(0, 2)
	wm.InFlight.Add(1, 1)
	wm.Ops.Add(0, 20)
	wm.Ops.Add(1, 30)
	wm.NotFound.Add(1, 4)
	wm.UnknownPeer.Add(0, 1)
	wm.RouteErrors.Add(1, 2)
	for i := 0; i < 20; i++ {
		wm.LatencyNS.Observe(i, float64(100+i))
		wm.Hops.Observe(i, float64(i%5))
	}
	wm.perOp[0].Ops.Add(0, 30)
	wm.perOp[0].LatencyNS.Observe(0, 111)
	wm.perOp[1].Errors.Add(1, 2)
	wm.perOp[1].Hops.Observe(1, 3)

	var hops stats.Histogram
	for i := 0; i < 64; i++ {
		hops.Observe(float64(i % 7))
	}
	return Snapshot{
		Engine: em.Snapshot(),
		Routing: RoutingSnapshot{
			CacheHits: 90, CacheMisses: 10, CacheInvalidations: 3,
			CacheEntries: 12, Fallbacks: 2,
			LookupHops: SummarizeHist(&hops),
		},
		Workload:      wm.Snapshot(),
		EventsDropped: 6,
	}
}

// TestSnapshotJSONRoundTrip pins that the full snapshot survives
// marshal/unmarshal unchanged — the contract the /metrics endpoint
// and the METRICS_JSON artifact rely on.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
	if got.Engine.QuiescentSteps != got.Engine.Steps-got.Engine.Batches {
		t.Fatalf("quiescent steps %d != steps %d - batches %d",
			got.Engine.QuiescentSteps, got.Engine.Steps, got.Engine.Batches)
	}
}

// TestRecordMergesLabels pins Record's read-modify-write behavior:
// labels accumulate, re-recording a label overwrites it.
func TestRecordMergesLabels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	a := sampleSnapshot()
	if err := Record(path, "sync-n2048", a); err != nil {
		t.Fatal(err)
	}
	b := sampleSnapshot()
	b.EventsDropped = 99
	if err := Record(path, "async-n8192", b); err != nil {
		t.Fatal(err)
	}
	if err := Record(path, "sync-n2048", b); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]Snapshot
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("got %d labels, want 2", len(all))
	}
	if all["sync-n2048"].EventsDropped != 99 {
		t.Fatalf("re-record did not overwrite label: %+v", all["sync-n2048"])
	}
}

// TestRecordEnvDisabled pins that RecordEnv without METRICS_JSON is a
// no-op, and with it set writes the file.
func TestRecordEnvDisabled(t *testing.T) {
	t.Setenv("METRICS_JSON", "")
	if err := RecordEnv("x", Snapshot{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	t.Setenv("METRICS_JSON", path)
	if err := RecordEnv("x", sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]Snapshot
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	if _, ok := all["x"]; !ok {
		t.Fatalf("label missing from %s: %v", path, all)
	}
}

func TestSummarizeHistEmpty(t *testing.T) {
	if got := SummarizeHist(nil); got != (HistSummary{}) {
		t.Fatalf("nil histogram summary = %+v, want zero", got)
	}
	var h stats.Histogram
	if got := SummarizeHist(&h); got != (HistSummary{}) {
		t.Fatalf("empty histogram summary = %+v, want zero", got)
	}
}

func TestEngineSnapshotRuleNames(t *testing.T) {
	var em EngineMetrics
	em.RuleFired[2].Add(9)
	s := em.Snapshot()
	if len(s.RuleFired) != NumRules {
		t.Fatalf("rule map has %d entries, want %d", len(s.RuleFired), NumRules)
	}
	if s.RuleFired["closest_real_neighbor"] != 9 {
		t.Fatalf("rule 3 count = %d, want 9 (%v)", s.RuleFired["closest_real_neighbor"], s.RuleFired)
	}
}

// TestEngineSnapshotFlowHitRate pins the derived template hit rate:
// shared installs over all installs, zero (not NaN) when nothing was
// installed — the zero-value EngineMetrics must snapshot cleanly.
func TestEngineSnapshotFlowHitRate(t *testing.T) {
	var em EngineMetrics
	if s := em.Snapshot(); s.FlowTemplateHit != 0 {
		t.Fatalf("zero-value hit rate = %v, want 0", s.FlowTemplateHit)
	}
	em.FlowInstallsShared.Set(3)
	em.FlowInstallsCopied.Set(1)
	if s := em.Snapshot(); s.FlowTemplateHit != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", s.FlowTemplateHit)
	}
}

func TestWorkloadMetricsNilSnapshot(t *testing.T) {
	var m *WorkloadMetrics
	if got := m.Snapshot(); !reflect.DeepEqual(got, WorkloadSnapshot{}) {
		t.Fatalf("nil workload snapshot = %+v, want zero", got)
	}
}

// TestShardedHistOverflowShard pins that any int is a valid shard
// index for the sharded histogram, counter and gauge: reduced modulo
// the shard count, negative ones and math.MinInt included, whether or
// not the count is a power of two.
func TestShardedHistOverflowShard(t *testing.T) {
	workers := []int{17, -3, math.MinInt, math.MaxInt}
	for _, n := range []int{2, 3} {
		sh := NewShardedHist(n)
		c := NewShardedCounter(n)
		g := NewShardedGauge(n)
		for _, w := range workers {
			sh.Observe(w, 5)
			c.Inc(w)
			g.Add(w, -2)
		}
		if got := sh.Merged().N(); got != len(workers) {
			t.Fatalf("%d shards: N = %d, want %d", n, got, len(workers))
		}
		if got := c.Value(); got != uint64(len(workers)) {
			t.Fatalf("%d shards: counter = %d, want %d", n, got, len(workers))
		}
		if got := g.Value(); got != -2*int64(len(workers)) {
			t.Fatalf("%d shards: gauge = %d, want %d", n, got, -2*len(workers))
		}
		_ = fmt.Sprintf("%v", sh.Summary())
	}
}

// TestObserveOpConcurrentExact is the sharded metrics' race gate (run
// it with -race): concurrent workers recording through ObserveOp and
// the in-flight gauge, more workers than shards so some share one,
// leave every counter in the snapshot exact and the gauge at zero.
func TestObserveOpConcurrentExact(t *testing.T) {
	const workers, ops = 8, 10_000
	m := NewWorkloadMetrics(6, "get", "put")
	outcomes := [...]Outcome{OpOK, OpNotFound, OpUnknownPeer, OpRouteError}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				m.InFlight.Add(w, 1)
				m.InFlight.Add(w, -1)
				m.ObserveOp(w, i%2, 3, outcomes[i%4], float64(i))
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	const total, quarter = workers * ops, workers * ops / 4
	if s.InFlight != 0 || s.Ops != total || s.NotFound != quarter || s.UnknownPeer != quarter ||
		s.RouteErrors != quarter || s.LatencyNS.Count != total || s.Hops.Count != total/2 {
		t.Fatalf("snapshot %+v: want %d ops, %d of each outcome, in-flight 0", s, total, quarter)
	}
	// Op kind i%2 and outcome i%4: gets see OK and unknown-peer, puts
	// not-found and route errors.
	for _, op := range s.PerOp {
		if op.Ops != total/2 || op.Errors != quarter || op.Hops.Count != quarter {
			t.Errorf("%s: %+v, want %d ops, %d errors, %d routed", op.Name, op, total/2, quarter, quarter)
		}
	}
}
