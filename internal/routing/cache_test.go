package routing

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
)

func TestRouteTablesMatchesConsistentHashing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw, ids, err := churn.StableNetwork(context.Background(), 64, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	for i := 0; i < 500; i++ {
		key := ident.ID(rng.Uint64())
		from := ids[rng.Intn(len(ids))]
		want, _ := Owner(nw, key)

		got, hops, err := RouteUncached(nw, from, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("RouteUncached(%s) = %s, want %s", key, got, want)
		}
		cgot, chops, err := cache.Resolve(from, key)
		if err != nil {
			t.Fatal(err)
		}
		if cgot != want {
			t.Fatalf("Cache.Resolve(%s) = %s, want %s", key, cgot, want)
		}
		if chops != hops {
			t.Fatalf("cached hops %d != uncached hops %d for key %s", chops, hops, key)
		}
		if hops > 20 {
			t.Fatalf("lookup took %d hops on a stable 64-peer network", hops)
		}
	}
}

// TestCacheNeverStaleUnderChurn steps a network through joins, leaves
// and failures with nobody publishing and, after every single round,
// routes through the cache's self-publishing entry point and through
// the uncached baseline that re-derives every hop's table: owner, hop
// count and failure must agree at all times, mid-stabilization
// included. (That a published table equals TableOf is
// TestPublishedViewMatchesTableOf's; this is the publish-when-moved
// check in front of the view, judged by what a lookup gets.)
func TestCacheNeverStaleUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw, _, err := churn.StableNetwork(context.Background(), 24, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	failed := 0
	check := func(when string) {
		peers := nw.Peers()
		for i := 0; i < 64; i++ {
			from, key := peers[rng.Intn(len(peers))], ident.ID(rng.Uint64())
			want, wantHops, wantErr := RouteUncached(nw, from, key)
			got, hops, err := cache.Resolve(from, key)
			if got != want || hops != wantHops || (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: %s from %s: the cache answered (%s, %d hops, %v), fresh tables (%s, %d hops, %v)",
					when, key, from, got, hops, err, want, wantHops, wantErr)
			}
			if err != nil {
				failed++
			}
		}
	}
	check("stable")

	for _, ev := range churn.RandomEvents(nw, 6, rng) {
		if err = ev.Apply(nw); err != nil {
			t.Fatal(err)
		}
		check("after " + string(ev.Kind))
		for r := 0; r < 4000 && !nw.Quiescent(); r++ {
			nw.Step()
			check(string(ev.Kind) + " mid-stabilization")
		}
		if !nw.Quiescent() {
			t.Fatalf("network did not re-stabilize after %s", ev.Kind)
		}
	}
	t.Logf("%d lookups failed mid-repair, identically on both sides", failed)
}

func TestCacheHitsWhenQuiescent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw, ids, err := churn.StableNetwork(context.Background(), 32, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	if _, _, err := cache.View().Resolve(ids[0], ids[1]); err == nil {
		t.Fatal("a view nobody published to routed a lookup")
	}
	// The first read publishes: one build per member, and nothing after
	// that, because a quiescent network bumps no epochs.
	for pass := 1; pass <= 2; pass++ {
		for _, id := range ids {
			if _, err := cache.Table(id); err != nil {
				t.Fatal(err)
			}
		}
		if hits, misses := cache.Stats(); int(misses) != len(ids) || int(hits) != pass*len(ids) {
			t.Fatalf("pass %d: hits=%d misses=%d, want hits=%d misses=%d", pass, hits, misses, pass*len(ids), len(ids))
		}
	}
}

func TestCachePruneDropsDepartedAndStale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw, ids, err := churn.StableNetwork(context.Background(), 16, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	for _, id := range ids {
		if _, err := cache.Table(id); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != len(ids) {
		t.Fatalf("cache holds %d tables, want %d", cache.Len(), len(ids))
	}
	if err := nw.Fail(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Table(ids[0]); err == nil {
		t.Fatal("Table of a departed peer must error")
	}
	if dropped := cache.Prune(); dropped == 0 {
		t.Fatal("Prune dropped nothing after a failure")
	}
	if cache.Len() >= len(ids) {
		t.Fatalf("cache still holds %d tables after prune", cache.Len())
	}
}

// TestRouteTablesExhaustiveAllHomes routes a dense key grid from EVERY
// home peer and checks the table router against consistent hashing.
// The exhaustive home sweep is the regression guard for the
// wrap-crossing bug: a lookup whose home lies clockwise past its key
// strands at the top peer (linear rr leaves it successorless and its
// fingers are too coarse to name the first peers after zero) and used
// to terminate the descent at the global minimum's owner as if the key
// were a wrap-segment key, returning the wrong owner for keys that do
// have real peers below them.
func TestRouteTablesExhaustiveAllHomes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	nw, ids, err := churn.StableNetwork(context.Background(), 24, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	const grid = 256
	for i := 0; i < grid; i++ {
		key := ident.ID(uint64(i) << 56) // evenly spaced around the ring
		want, _ := Owner(nw, key)
		for _, from := range ids {
			got, _, err := cache.Resolve(from, key)
			if err != nil {
				t.Fatalf("key %s from %s: %v", key, from, err)
			}
			if got != want {
				t.Fatalf("key %s from %s: routed to %s, consistent hashing says %s", key, from, got, want)
			}
		}
	}
}
