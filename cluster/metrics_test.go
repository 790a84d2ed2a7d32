package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestSubscriberOverflowCounted pins the event bus's drop accounting:
// a subscriber that never drains its buffer loses events, the loss is
// counted, and the counter is surfaced through the metrics snapshot —
// without the publisher ever blocking.
func TestSubscriberOverflowCounted(t *testing.T) {
	c, err := New(WithSize(12), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// A buffer of 1 and no reader: the first event lands, the rest of
	// the churn's event stream (joins, epoch bumps, region-settled)
	// must be dropped and counted.
	events, unsubscribe := c.Subscribe(1)
	defer unsubscribe()
	for i := 0; i < 3; i++ {
		if _, err := c.Join(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stabilize(ctx); err != nil {
			t.Fatal(err)
		}
	}
	dropped := c.EventsDropped()
	if dropped == 0 {
		t.Fatal("overflowing a 1-slot subscriber dropped no events")
	}
	if got := c.Metrics().EventsDropped; got != dropped {
		t.Fatalf("Metrics().EventsDropped = %d, EventsDropped() = %d", got, dropped)
	}
	// The one buffered event is still delivered in order (the first
	// published: the initial join).
	ev := <-events
	if ev.Kind != EventPeerJoined {
		t.Fatalf("buffered event kind = %v, want %v", ev.Kind, EventPeerJoined)
	}
}

// TestMetricsSnapshot exercises the structured snapshot end to end: a
// workload run populates every layer, and the snapshot's counters
// agree with the run's report.
func TestMetricsSnapshot(t *testing.T) {
	c, err := New(WithSize(16), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	rep, err := c.RunWorkload(ctx, WorkloadConfig{Ops: 400, Preload: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Metrics()
	if s.Workload.Ops != uint64(rep.Ops) {
		t.Fatalf("snapshot ops = %d, report ops = %d", s.Workload.Ops, rep.Ops)
	}
	if s.Workload.LatencyNS.Count != uint64(rep.Ops) {
		t.Fatalf("latency histogram count = %d, want %d", s.Workload.LatencyNS.Count, rep.Ops)
	}
	if s.Routing.LookupHops.Count == 0 {
		t.Fatal("no lookup hops recorded")
	}
	if s.Routing.CacheHits+s.Routing.CacheMisses == 0 {
		t.Fatal("workload run touched no cached tables")
	}
	if s.Engine.Steps == 0 {
		t.Fatal("engine step counter did not advance (stabilization ran)")
	}
	if s.Engine.Delivered == 0 || s.Engine.Batches == 0 {
		t.Fatalf("engine batch counters empty: %+v", s.Engine)
	}
	if s.Engine.QuiescentSteps != s.Engine.Steps-s.Engine.Batches {
		t.Fatalf("quiescent steps %d != steps %d - batches %d",
			s.Engine.QuiescentSteps, s.Engine.Steps, s.Engine.Batches)
	}
	fired := uint64(0)
	for _, n := range s.Engine.RuleFired {
		fired += n
	}
	if fired == 0 {
		t.Fatal("no rule firings attributed (the seed stabilization fires rules)")
	}
	for _, phase := range []string{"deliver", "execute", "prepare", "publish", "reroute"} {
		if _, ok := s.Engine.PhaseNS[phase]; !ok {
			t.Fatalf("phase %q missing from snapshot", phase)
		}
	}
	// The flow-storage gauges ride along: a stabilized network holds
	// live shared templates, and its standing buckets reference them.
	if s.Engine.FlowContribs <= 0 || s.Engine.FlowResidentBytes <= 0 {
		t.Fatalf("flow gauges empty after stabilization: templates=%d resident=%d",
			s.Engine.FlowContribs, s.Engine.FlowResidentBytes)
	}
	if s.Engine.FlowSharedBytes <= 0 || s.Engine.FlowTemplateHit <= 0 {
		t.Fatalf("shared-storage gauges empty: shared=%d hit=%v",
			s.Engine.FlowSharedBytes, s.Engine.FlowTemplateHit)
	}
	// The facade KV path feeds the same metrics set.
	if err := c.Put(ctx, "facade-key", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "facade-key"); err != nil {
		t.Fatal(err)
	}
	s2 := c.Metrics()
	if s2.Workload.Ops != s.Workload.Ops+2 {
		t.Fatalf("facade ops not counted: %d -> %d", s.Workload.Ops, s2.Workload.Ops)
	}
	if got := s2.Workload.PerOp[opGet].Ops + s2.Workload.PerOp[opPut].Ops + s2.Workload.PerOp[opDelete].Ops + s2.Workload.PerOp[opLookup].Ops; got != s2.Workload.Ops {
		t.Fatalf("per-op counts sum to %d, total %d", got, s2.Workload.Ops)
	}
}

// TestTraceLookup pins the per-lookup trace on both execution models:
// the traced owner matches Lookup's contract, hops are the unified
// path definition, cache attribution is present, and the async model
// annotates one simulated delay per hop.
func TestTraceLookup(t *testing.T) {
	ctx := context.Background()
	t.Run("sync", func(t *testing.T) {
		c, err := New(WithSize(24), WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tr, err := c.TraceLookup(ctx, "some-key")
		if err != nil {
			t.Fatal(err)
		}
		if PeerID(tr.Owner) != c.Owner("some-key") {
			t.Fatalf("trace owner %s, want %s", tr.Owner, c.Owner("some-key"))
		}
		if len(tr.Path) == 0 {
			t.Fatal("trace has no path")
		}
		if tr.Hops() != len(tr.Path)-1 {
			t.Fatalf("Hops() = %d, path length %d", tr.Hops(), len(tr.Path))
		}
		if tr.CacheHits == 0 {
			t.Fatal("cached lookup attributed no table fetches")
		}
		if tr.DelaySteps != nil {
			t.Fatal("sync trace carries delay annotations")
		}
		if s := tr.String(); !strings.Contains(s, "hops") {
			t.Fatalf("trace renders %q", s)
		}
	})
	t.Run("async", func(t *testing.T) {
		c, err := New(WithSize(24), WithSeed(4), WithAsync(0.5, DelayUniform(5)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tr, err := c.TraceLookup(ctx, "some-key")
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.DelaySteps) != tr.Hops() {
			t.Fatalf("%d delay annotations for %d hops", len(tr.DelaySteps), tr.Hops())
		}
		for i, d := range tr.DelaySteps {
			if d < 1 || d > 5 {
				t.Fatalf("delay[%d] = %d outside the model's 1..5", i, d)
			}
		}
		if tr.TotalDelay() < tr.Hops() {
			t.Fatalf("total delay %d below hop count %d", tr.TotalDelay(), tr.Hops())
		}
	})
}

// TestMetricsDuringWorkloadRace is the race gate for the lock-free
// snapshot contract: Metrics() must be safe — and non-blocking —
// while a workload (which holds the cluster's write lock for its whole
// run) is mutating every counter it reads. Run with -race.
func TestMetricsDuringWorkloadRace(t *testing.T) {
	c, err := New(WithSize(16), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := c.Metrics()
				if s.Workload.Ops < s.Workload.NotFound {
					t.Error("snapshot counters inconsistent beyond torn-read tolerance")
					return
				}
				_ = s.Routing.LookupHops
				_ = c.EventsDropped()
			}
		}()
	}
	_, err = c.RunWorkload(ctx, WorkloadConfig{Ops: 2000, Preload: 128, Seed: 2, ChurnEvents: 2})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Workload.Ops; got == 0 {
		t.Fatal("workload recorded no ops")
	}
}
