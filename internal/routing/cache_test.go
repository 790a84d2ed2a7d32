package routing

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
)

// tablesEqual compares the Chord-visible content of two tables.
func tablesEqual(a, b *Table) bool {
	if a.Self != b.Self || a.HasSucc != b.HasSucc ||
		(a.HasSucc && a.Successor != b.Successor) || len(a.Fingers) != len(b.Fingers) {
		return false
	}
	for lvl, f := range a.Fingers {
		if b.Fingers[lvl] != f {
			return false
		}
	}
	return true
}

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
// and failures and, after every single round, checks every cached
// table against a freshly derived TableOf: the epoch invalidation must
// make the two agree at all times, including mid-stabilization.
func TestCacheNeverStaleUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw, _, err := churn.StableNetwork(context.Background(), 24, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	checkAll := func(when string) {
		for _, id := range nw.Peers() {
			cached, err := cache.Table(id)
			if err != nil {
				t.Fatalf("%s: cache.Table(%s): %v", when, id, err)
			}
			fresh, err := TableOf(nw, id)
			if err != nil {
				t.Fatalf("%s: TableOf(%s): %v", when, id, err)
			}
			if !tablesEqual(cached, fresh) {
				t.Fatalf("%s: cache served a stale table for %s:\n  cached %+v\n  fresh  %+v",
					when, id, cached, fresh)
			}
		}
	}
	checkAll("stable")

	for _, ev := range churn.RandomEvents(nw, 6, rng) {
		if err = ev.Apply(nw); err != nil {
			t.Fatal(err)
		}
		checkAll("after " + string(ev.Kind))
		for r := 0; r < 4000 && !nw.Quiescent(); r++ {
			nw.Step()
			checkAll(string(ev.Kind) + " mid-stabilization")
		}
		if !nw.Quiescent() {
			t.Fatalf("network did not re-stabilize after %s", ev.Kind)
		}
	}
}

func TestCacheHitsWhenQuiescent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw, ids, err := churn.StableNetwork(context.Background(), 32, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	for _, id := range ids {
		if _, err := cache.Table(id); err != nil {
			t.Fatal(err)
		}
	}
	_, misses := cache.Stats()
	if int(misses) != len(ids) {
		t.Fatalf("first pass: %d misses, want %d", misses, len(ids))
	}
	// A quiescent network bumps no epochs: the second pass is all hits.
	for _, id := range ids {
		if _, err := cache.Table(id); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses2 := cache.Stats()
	if misses2 != misses || int(hits) != len(ids) {
		t.Fatalf("quiescent pass: hits=%d misses=%d, want hits=%d misses=%d",
			hits, misses2, len(ids), misses)
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
