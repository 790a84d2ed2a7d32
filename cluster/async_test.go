package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestAsyncClusterStabilizeAndServe is the facade-level acceptance
// path for the asynchronous execution model: a cluster built with
// WithAsync stabilizes an adversarial topology through the event-
// driven scheduler, verifies the exact oracle state, serves KV
// traffic, and absorbs churn — all through the unchanged public API.
func TestAsyncClusterStabilizeAndServe(t *testing.T) {
	ctx := context.Background()
	c, err := New(
		WithSize(24),
		WithSeed(5),
		WithTopology(TopologyRandom),
		WithAsync(0.5, DelayUniform(3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ExecutionModel(); got != "async" {
		t.Fatalf("ExecutionModel = %q, want async", got)
	}

	rep, err := c.Stabilize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stable || rep.Rounds <= 0 {
		t.Fatalf("async Stabilize: stable=%v steps=%d", rep.Stable, rep.Rounds)
	}
	if err := c.VerifyStable(); err != nil {
		t.Fatal(err)
	}
	if c.Round() != 0 {
		t.Errorf("async cluster advanced the synchronous round counter to %d", c.Round())
	}
	if c.Steps() < rep.Rounds {
		t.Errorf("Steps = %d, want >= %d", c.Steps(), rep.Rounds)
	}

	if err := c.Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(ctx, "k"); err != nil || v != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}

	if _, err := c.ChurnRandom(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStable(); err != nil {
		t.Fatalf("after async churn: %v", err)
	}
	if v, err := c.Get(ctx, "k"); err != nil || v != "v" {
		t.Fatalf("Get after churn = %q, %v", v, err)
	}
}

// TestAsyncRunWorkloadWithChurn drives the concurrent traffic engine
// against an async-scheduled cluster: lookups race re-stabilization
// that proceeds under the asynchronous adversary, delayed messages and
// all. Runs in the CI race gate.
func TestAsyncRunWorkloadWithChurn(t *testing.T) {
	ctx := context.Background()
	c, err := New(WithSize(24), WithSeed(7), WithAsync(0.6, DelayUniform(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := c.RunWorkload(ctx, WorkloadConfig{
		Workers:     8,
		Ops:         3000,
		Keyspace:    512,
		Preload:     128,
		Seed:        7,
		ChurnEvents: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 3000 {
		t.Fatalf("Ops = %d, want 3000", rep.Ops)
	}
	if rep.Errors > rep.Ops/10 {
		t.Fatalf("error rate too high under async churn: %d/%d", rep.Errors, rep.Ops)
	}
	if !c.Quiescent() {
		t.Fatal("cluster not quiescent after async workload")
	}
	if err := c.VerifyStable(); err != nil {
		t.Fatal(err)
	}

	// Same seed and config on a fresh identical cluster: identical op
	// stream fingerprint (the determinism contract at workload level).
	c2, err := New(WithSize(24), WithSeed(7), WithAsync(0.6, DelayUniform(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep2, err := c2.RunWorkload(ctx, WorkloadConfig{
		Workers:     8,
		Ops:         3000,
		Keyspace:    512,
		Preload:     128,
		Seed:        7,
		ChurnEvents: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsFingerprint != rep2.OpsFingerprint {
		t.Fatalf("op-stream fingerprints differ across identical async runs: %016x vs %016x",
			rep.OpsFingerprint, rep2.OpsFingerprint)
	}
}

// TestAsyncStabilizeCancel: cancellation under the asynchronous
// scheduler leaves the cluster at a step barrier, resumable by calling
// Stabilize again. Runs in the CI race gate.
func TestAsyncStabilizeCancel(t *testing.T) {
	c, err := New(
		WithSize(48),
		WithSeed(9),
		WithTopology(TopologyGarbage),
		WithAsync(0.3, DelayUniform(4)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Stabilize(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Stabilize: %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	_, err = c.Stabilize(ctx2)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run canceled Stabilize: %v", err)
	}

	// Resume to the fixed point and verify the oracle state.
	if _, err := c.Stabilize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStable(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncRunWorkloadCancel: canceling an async workload stops
// workers and the churn driver, the facade finishes any interrupted
// repair, and the cluster stays fully serviceable. Runs in the CI race
// gate.
func TestAsyncRunWorkloadCancel(t *testing.T) {
	c, err := New(WithSize(16), WithSeed(11), WithAsync(0.5, DelayUniform(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rep, err := c.RunWorkload(ctx, WorkloadConfig{
		Workers:     4,
		Duration:    10 * time.Second, // the cancel ends it long before
		Keyspace:    256,
		Seed:        11,
		ChurnEvents: 4,
		// Duration mode requires explicit churn spacing.
		ChurnEveryOps: 50,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunWorkload: err=%v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("canceled RunWorkload returned no partial telemetry")
	}
	if !c.Quiescent() {
		t.Fatal("facade did not finish the interrupted repair")
	}
	if err := c.Put(context.Background(), "after", "cancel"); err != nil {
		t.Fatalf("cluster not serviceable after cancel: %v", err)
	}
	if v, err := c.Get(context.Background(), "after"); err != nil || v != "cancel" {
		t.Fatalf("Get after cancel = %q, %v", v, err)
	}
}

// TestAsyncOptionValidation pins the option-combination errors.
func TestAsyncOptionValidation(t *testing.T) {
	if _, err := New(WithAsync(1.5, nil)); !errors.Is(err, ErrConfig) {
		t.Errorf("activation prob 1.5: %v, want ErrConfig", err)
	}
	if _, err := New(WithAsync(0, nil)); !errors.Is(err, ErrConfig) {
		t.Errorf("activation prob 0: %v, want ErrConfig", err)
	}
}

// TestParseDelayModel covers the flag-facing spec parser.
func TestParseDelayModel(t *testing.T) {
	for _, ok := range []string{"", "uniform:4", "geometric:0.5", "geom:0.5:16", "pareto:1.5", "pareto:1.5:64"} {
		if _, err := ParseDelayModel(ok); err != nil {
			t.Errorf("ParseDelayModel(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"uniform", "uniform:0", "uniform:x", "geometric:2", "geometric:0",
		"pareto:0", "pareto:1.5:64:9", "fixed:3", "geom"} {
		if _, err := ParseDelayModel(bad); !errors.Is(err, ErrConfig) {
			t.Errorf("ParseDelayModel(%q): %v, want ErrConfig", bad, err)
		}
	}
}
