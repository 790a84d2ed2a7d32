package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
)

// TestLockstepFacadeVsDirect proves the facade adds no behavior: the
// same seed, the same op sequence and the same home-selection rule
// executed through cluster.Get/Put/Delete/Lookup and through a
// hand-wired dht.Store over a published routing.Cache view produce
// identical owners, values, hop counts and errors, op for op.
func TestLockstepFacadeVsDirect(t *testing.T) {
	const n, seed, keys = 24, 77, 120

	c, err := New(WithSize(n), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The direct composition, wired the way consumers did before the
	// facade existed — seeded identically, so the network is identical.
	rng := rand.New(rand.NewSource(seed))
	nw, _, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := routing.NewCache(nw)
	cache.Publish()
	store := dht.NewWithResolver(nw, routing.ViewResolver{Cache: cache})
	homes := nw.Peers()
	ctr := 0
	nextHome := func() ident.ID { h := homes[ctr%len(homes)]; ctr++; return h }

	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("obj-%04d", i) }
	val := func(i int) string { return fmt.Sprintf("val-%04d", i) }

	for i := 0; i < keys; i++ {
		if err := c.Put(ctx, key(i), val(i)); err != nil {
			t.Fatalf("facade put %d: %v", i, err)
		}
		if _, _, err := store.Put(nextHome(), key(i), val(i)); err != nil {
			t.Fatalf("direct put %d: %v", i, err)
		}
	}
	for i := 0; i < keys; i++ {
		fOwner, fHops, err := c.Lookup(ctx, key(i))
		if err != nil {
			t.Fatalf("facade lookup %d: %v", i, err)
		}
		dOwner, dHops, err := store.ResolveKey(nextHome(), key(i))
		if err != nil {
			t.Fatalf("direct lookup %d: %v", i, err)
		}
		if fOwner.id() != dOwner || fHops != dHops {
			t.Fatalf("lookup %d: facade (%s, %d hops) != direct (%s, %d hops)", i, fOwner, fHops, dOwner, dHops)
		}
		if want := c.Owner(key(i)); want != fOwner {
			t.Fatalf("lookup %d routed to %s, consistent hashing says %s", i, fOwner, want)
		}
	}
	for i := 0; i < keys; i++ {
		fv, ferr := c.Get(ctx, key(i))
		dv, _, derr := store.Get(nextHome(), key(i))
		if ferr != nil || derr != nil {
			t.Fatalf("get %d: facade err %v, direct err %v", i, ferr, derr)
		}
		if fv != dv || fv != val(i) {
			t.Fatalf("get %d: facade %q, direct %q, want %q", i, fv, dv, val(i))
		}
	}
	for i := 0; i < keys; i += 3 {
		fDel, err := c.Delete(ctx, key(i))
		if err != nil {
			t.Fatalf("facade delete %d: %v", i, err)
		}
		dDel, _, err := store.Delete(nextHome(), key(i))
		if err != nil {
			t.Fatalf("direct delete %d: %v", i, err)
		}
		if fDel != dDel || !fDel {
			t.Fatalf("delete %d: facade %v, direct %v", i, fDel, dDel)
		}
	}
	if c.Keys() != store.Len() {
		t.Fatalf("final store sizes differ: facade %d, direct %d", c.Keys(), store.Len())
	}
	for i := 0; i < keys; i++ {
		_, ferr := c.Get(ctx, key(i))
		_, _, derr := store.Get(nextHome(), key(i))
		if (ferr == nil) != (derr == nil) {
			t.Fatalf("post-delete get %d: facade err %v, direct err %v", i, ferr, derr)
		}
		if i%3 == 0 && !errors.Is(ferr, ErrNotFound) {
			t.Fatalf("post-delete get %d: err %v, want ErrNotFound", i, ferr)
		}
	}
}

// TestMidRepairLookupContract pins what a KV call gets between a
// membership event and the caller's Stabilize, where the facade serves
// the view published right after the event and has no second path: the
// key's successor under the old or the new membership, another member
// (a table that is not Chord's yet can end a lookup early — a joiner
// nobody knows and who knows one contact; the counts are logged), or
// ErrNoRoute, and nothing else. After Stabilize every lookup names
// Owner(key).
func TestMidRepairLookupContract(t *testing.T) {
	const n, keys = 48, 400
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("obj-%04d", i) }
	for _, kind := range []churn.Kind{churn.Join, churn.Leave, churn.Fail} {
		t.Run(string(kind), func(t *testing.T) {
			c, err := New(WithSize(n), WithSeed(21))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pre := c.Peers()
			preIDs := make([]ident.ID, len(pre))
			for i, p := range pre {
				preIDs[i] = p.id()
			}
			switch kind {
			case churn.Join:
				_, err = c.Join(ctx)
			case churn.Leave:
				err = c.Leave(ctx, pre[n/3])
			case churn.Fail:
				err = c.Fail(ctx, pre[n/3])
			}
			if err != nil {
				t.Fatal(err)
			}
			member := map[PeerID]bool{}
			for _, p := range append(pre, c.Peers()...) {
				member[p] = true
			}
			owners, noRoute, other := 0, 0, 0
			for i := 0; i < keys; i++ {
				kid := dht.KeyID(key(i))
				got, _, err := c.Lookup(ctx, key(i))
				switch {
				case errors.Is(err, ErrNoRoute):
					noRoute++
				case err != nil:
					t.Fatalf("lookup %d before Stabilize: %v, want an owner or ErrNoRoute", i, err)
				case got == c.Owner(key(i)) || got.id() == ident.Successor(preIDs, kid):
					owners++
				case member[got]:
					other++
				default:
					t.Fatalf("lookup %d before Stabilize named %s, which was never a member", i, got)
				}
			}
			t.Logf("before Stabilize: %d owners, %d ErrNoRoute, %d other members of %d lookups", owners, noRoute, other, keys)
			if kind == churn.Join && noRoute > 0 {
				t.Errorf("%d lookups failed after a join: the old ring routes every key", noRoute)
			}
			if owners < keys*8/10 {
				t.Errorf("only %d of %d lookups reached an owner one event away from the stable state", owners, keys)
			}
			if got := c.Metrics().Workload.RouteErrors; got != uint64(noRoute) {
				t.Errorf("metrics count %d route errors, callers saw %d", got, noRoute)
			}

			if _, err := c.Stabilize(ctx); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < keys; i++ {
				if got, _, err := c.Lookup(ctx, key(i)); err != nil || got != c.Owner(key(i)) {
					t.Fatalf("lookup %d after Stabilize: (%s, %v), want %s", i, got, err, c.Owner(key(i)))
				}
			}
			if got := c.Metrics().Routing.Fallbacks; got != 0 {
				t.Errorf("Routing.Fallbacks = %d: the facade has no fallback to count", got)
			}
		})
	}
}

// TestWorkloadLockstep: the same workload through the facade and
// through the engine directly produces the same deterministic op and
// store fingerprints.
func TestWorkloadLockstep(t *testing.T) {
	cfg := WorkloadConfig{Workers: 4, Ops: 1200, Keyspace: 256, Preload: 128, Seed: 9}
	run := func() (*WorkloadReport, error) {
		c, err := New(WithSize(16), WithSeed(3))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.RunWorkload(context.Background(), cfg)
	}
	r1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.OpsFingerprint != r2.OpsFingerprint {
		t.Errorf("op fingerprints differ across identical runs: %016x vs %016x", r1.OpsFingerprint, r2.OpsFingerprint)
	}
	if r1.StoreFingerprint != r2.StoreFingerprint {
		t.Errorf("store fingerprints differ across identical runs: %016x vs %016x", r1.StoreFingerprint, r2.StoreFingerprint)
	}
	if r1.Ops != cfg.Ops {
		t.Errorf("Ops = %d, want %d", r1.Ops, cfg.Ops)
	}
	if r1.CacheHits == 0 {
		t.Error("router cache saw no hits on a quiescent network")
	}
}

// TestLifecycleAndEvents drives join/leave/fail through the facade and
// checks the event stream sees each lifecycle change, the settle after
// each stabilization, and the epoch advancing — and that the cluster
// ends in the verified stable state.
func TestLifecycleAndEvents(t *testing.T) {
	c, err := New(WithSize(12), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events, cancel := c.Subscribe(64)
	defer cancel()
	ctx := context.Background()

	joined, err := c.Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Quiescent() {
		t.Error("network quiescent immediately after a join")
	}
	if _, err := c.Stabilize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(ctx, joined); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stabilize(ctx); err != nil {
		t.Fatal(err)
	}
	peers := c.Peers()
	if err := c.Fail(ctx, peers[len(peers)-1]); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Stabilize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stable || rep.Rounds <= 0 {
		t.Errorf("final stabilize: stable %v after %d rounds", rep.Stable, rep.Rounds)
	}
	if !c.Quiescent() {
		t.Error("cluster not quiescent after stabilize")
	}
	if err := c.VerifyStable(); err != nil {
		t.Error(err)
	}
	if s, total := c.LocallyStable(); s != total {
		t.Errorf("only %d/%d peers locally stable at the fixed point", s, total)
	}

	got := map[EventKind]int{}
	for len(events) > 0 {
		got[(<-events).Kind]++
	}
	for _, want := range []struct {
		kind EventKind
		n    int
	}{
		{EventPeerJoined, 1}, {EventPeerLeft, 1}, {EventPeerFailed, 1},
		{EventRegionSettled, 3}, {EventEpochBumped, 3},
	} {
		if got[want.kind] != want.n {
			t.Errorf("saw %d %s events, want %d (all: %v)", got[want.kind], want.kind, want.n, got)
		}
	}
	if c.EventsDropped() != 0 {
		t.Errorf("%d events dropped with an ample buffer", c.EventsDropped())
	}
}

// TestStabilizeHonorsContext cancels a stabilization of a large
// adversarial topology mid-run and checks the facade returns promptly,
// reports the cancellation, and can resume to the verified fixed
// point.
func TestStabilizeHonorsContext(t *testing.T) {
	c, err := New(WithSize(384), WithSeed(2), WithTopology(TopologyLine), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Stabilize(ctx); !errors.Is(err, context.Canceled) {
		// A very fast machine may finish inside 2ms; that is not a
		// failure of cancellation, just of the race setup.
		if err != nil {
			t.Fatalf("Stabilize returned %v, want context.Canceled or success", err)
		}
	}
	// Resume from the round barrier the cancellation left behind.
	if _, err := c.Stabilize(context.Background()); err != nil {
		t.Fatalf("resumed Stabilize failed: %v", err)
	}
	if err := c.VerifyStable(); err != nil {
		t.Error(err)
	}

	// An already-expired context never starts stepping.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	r0 := c.Round()
	if _, err := c.Stabilize(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stabilize with expired ctx returned %v", err)
	}
	if c.Round() != r0 {
		t.Errorf("expired ctx still stepped the network %d rounds", c.Round()-r0)
	}
}

// TestWorkloadChurnEventsAndRecovery runs facade traffic with
// interleaved churn and checks the events arrive and the cluster is
// returned stable and serviceable.
func TestWorkloadChurnEventsAndRecovery(t *testing.T) {
	c, err := New(WithSize(24), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events, cancel := c.Subscribe(256)
	defer cancel()

	ctx := context.Background()
	rep, err := c.RunWorkload(ctx, WorkloadConfig{
		Workers: 4, Ops: 1600, Keyspace: 256, Preload: 64, Seed: 4,
		ChurnEvents: 3, ChurnEveryOps: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChurnApplied == 0 {
		t.Fatal("no churn applied; nothing exercised")
	}
	if !c.Quiescent() {
		t.Error("cluster not quiescent after RunWorkload")
	}
	if err := c.VerifyStable(); err != nil {
		t.Error(err)
	}
	peerEvents := 0
	for len(events) > 0 {
		ev := <-events
		if ev.Kind == EventPeerJoined || ev.Kind == EventPeerLeft || ev.Kind == EventPeerFailed {
			peerEvents++
		}
	}
	if peerEvents != rep.ChurnApplied {
		t.Errorf("saw %d peer events for %d applied churn events", peerEvents, rep.ChurnApplied)
	}
	// The cluster must be serviceable right after the run.
	if err := c.Put(ctx, "after", "run"); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(ctx, "after"); err != nil || v != "run" {
		t.Fatalf("Get after workload = %q, %v", v, err)
	}
}

// TestRunWorkloadCancel cancels facade traffic mid-run and checks the
// partial report comes back with ctx.Err() and the cluster is left
// stable (the facade finishes any interrupted repair itself).
func TestRunWorkloadCancel(t *testing.T) {
	c, err := New(WithSize(16), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	rep, err := c.RunWorkload(ctx, WorkloadConfig{
		Workers: 4, Ops: 50_000_000, Keyspace: 256, Seed: 2,
		ChurnEvents: 500, ChurnEveryOps: 500,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunWorkload returned %v, want deadline exceeded", err)
	}
	if rep == nil || rep.Ops == 0 {
		t.Fatal("canceled RunWorkload returned no partial telemetry")
	}
	if !c.Quiescent() {
		t.Error("cluster not re-stabilized after canceled workload")
	}
	if err := c.VerifyStable(); err != nil {
		t.Error(err)
	}
	if err := c.Put(context.Background(), "k", "v"); err != nil {
		t.Fatal(err)
	}
}

// TestChurnRandom checks the random churn helper re-stabilizes and
// verifies after every event and reports per-event recovery costs.
func TestChurnRandom(t *testing.T) {
	c, err := New(WithSize(20), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs, err := c.ChurnRandom(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d recoveries, want 5", len(recs))
	}
	for _, r := range recs {
		if r.Rounds <= 0 {
			t.Errorf("%s of %s recovered in %d rounds", r.Kind, r.Peer, r.Rounds)
		}
	}
	if err := c.VerifyStable(); err != nil {
		t.Error(err)
	}
}

// TestErrorTaxonomy checks every documented error class is returned
// where promised and matchable with errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	if _, err := New(WithSize(0)); !errors.Is(err, ErrConfig) {
		t.Errorf("New(size 0) = %v, want ErrConfig", err)
	}
	if _, err := New(WithTopology("moebius")); !errors.Is(err, ErrConfig) {
		t.Errorf("New(bad topology) = %v, want ErrConfig", err)
	}

	c, err := New(WithSize(8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Get(ctx, "never-stored"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := c.Leave(ctx, PeerID(0xDEAD)); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Leave(unknown) = %v, want ErrUnknownPeer", err)
	}
	if err := c.Fail(ctx, PeerID(0xDEAD)); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Fail(unknown) = %v, want ErrUnknownPeer", err)
	}
	if _, err := c.RunWorkload(ctx, WorkloadConfig{}); !errors.Is(err, ErrConfig) {
		t.Errorf("RunWorkload(no ops) = %v, want ErrConfig", err)
	}
	if _, err := c.RunWorkload(ctx, WorkloadConfig{Ops: 10, Distribution: "pareto"}); !errors.Is(err, ErrConfig) {
		t.Errorf("RunWorkload(bad dist) = %v, want ErrConfig", err)
	}
	if _, err := c.ChurnRandom(ctx, -1); !errors.Is(err, ErrConfig) {
		t.Errorf("ChurnRandom(-1) = %v, want ErrConfig", err)
	}

	// A runtime failure (preload routing on an un-stabilized topology)
	// must never be classified as a configuration error.
	unstable, err := New(WithSize(12), WithSeed(3), WithTopology(TopologyLine))
	if err != nil {
		t.Fatal(err)
	}
	defer unstable.Close()
	if _, werr := unstable.RunWorkload(ctx, WorkloadConfig{Ops: 50, Preload: 32, Keyspace: 64}); werr != nil && errors.Is(werr, ErrConfig) {
		t.Errorf("RunWorkload runtime failure misclassified as ErrConfig: %v", werr)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "k", "v"); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Join(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Join after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (idempotent)", err)
	}
}

// TestLastPeerProtected: the facade refuses to empty the cluster.
func TestLastPeerProtected(t *testing.T) {
	c, err := New(WithSize(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	peers := c.Peers()
	if err := c.Leave(ctx, peers[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(ctx, peers[1]); !errors.Is(err, ErrConfig) {
		t.Fatalf("removing the last peer = %v, want ErrConfig", err)
	}
}

// TestTopologiesStabilize: every non-stable topology heals to the
// verified fixed point through the facade — including the loopy state
// that defeats classic Chord.
func TestTopologiesStabilize(t *testing.T) {
	for _, topo := range Topologies() {
		if topo == TopologyStable {
			continue
		}
		c, err := New(WithSize(17), WithSeed(13), WithTopology(topo))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		// Nothing is published before the first Stabilize: no table of
		// an un-stabilized topology is worth routing on.
		if _, _, err := c.Lookup(context.Background(), "k"); !errors.Is(err, ErrNoRoute) {
			t.Errorf("%s: lookup before the first Stabilize = %v, want ErrNoRoute", topo, err)
		}
		rep, err := c.Stabilize(context.Background(), StabilizeAlmostStable())
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if err := c.VerifyStable(); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
		if got, _, err := c.Lookup(context.Background(), "k"); err != nil || got != c.Owner("k") {
			t.Errorf("%s: lookup after Stabilize = (%s, %v), want %s", topo, got, err, c.Owner("k"))
		}
		if topo != TopologyPreStabilized && rep.AlmostStableRound < 0 {
			t.Errorf("%s: almost-stable round not observed", topo)
		}
		c.Close()
	}
}
