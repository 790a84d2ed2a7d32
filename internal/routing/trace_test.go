package routing

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// TestHopAccountingUnified pins the one hop definition every layer
// reports through: the table lookup's forward counter, the traced
// path's obs.PathHops, and the state walk's path-based count must all
// agree on a stable network — a hop is an inter-peer forward, and the
// terminal owner is known to (not forwarded by) the last visited
// peer.
func TestHopAccountingUnified(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw, ids, err := churn.StableNetwork(context.Background(), 96, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nw)
	walker := Walker{NW: nw}
	tr := &obs.LookupTrace{}
	for i := 0; i < 400; i++ {
		key := ident.ID(rng.Uint64())
		from := ids[rng.Intn(len(ids))]
		want, _ := Owner(nw, key)

		*tr = obs.LookupTrace{Path: tr.Path[:0]}
		owner, hops, err := cache.Publish().ResolveTraced(from, key, tr)
		if err != nil {
			t.Fatal(err)
		}
		if owner != want {
			t.Fatalf("ResolveTraced(%s) = %s, want %s", key, owner, want)
		}
		if tr.Owner != owner || tr.From != from || tr.Key != key {
			t.Fatalf("trace endpoints %+v do not match lookup (%s -> %s, owner %s)", tr, from, key, owner)
		}
		if got := tr.Hops(); got != hops {
			t.Fatalf("PathHops(trace path) = %d, RouteTables hops = %d (path %v)", got, hops, tr.Path)
		}
		if len(tr.Path) == 0 || tr.Path[0] != from {
			t.Fatalf("trace path %v does not start at %s", tr.Path, from)
		}
		if tr.CacheHits == 0 {
			t.Fatal("traced lookup attributed no table fetches")
		}

		wowner, whops, err := walker.Resolve(from, key)
		if err != nil {
			t.Fatal(err)
		}
		if wowner != want {
			t.Fatalf("walker owner %s, want %s", wowner, want)
		}
		if _, path, _ := Route(nw, from, key); obs.PathHops(path) != whops {
			t.Fatalf("walker PathHops = %d, Resolve hops = %d", obs.PathHops(path), whops)
		}
	}
	if inv := cache.Invalidations(); inv != 0 {
		t.Fatalf("stable network produced %d cache invalidations", inv)
	}
}

// TestCacheInvalidationsCounted pins the invalidation counter: a
// cached table whose peer's epoch moved is counted once when the
// stale entry is found, and the rebuilt table serves hits again.
func TestCacheInvalidationsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
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
	if inv := cache.Invalidations(); inv != 0 {
		t.Fatalf("warmup misses counted as invalidations (%d)", inv)
	}
	// Fail a peer and re-stabilize: the repair rewrites its neighbors'
	// state (and epochs), so at least those cached tables must be
	// detected stale on the next fetch.
	if err := nw.Fail(ids[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !nw.Quiescent(); i++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		t.Fatal("network did not re-stabilize")
	}
	for _, id := range nw.Peers() {
		if _, err := cache.Table(id); err != nil {
			t.Fatal(err)
		}
	}
	inv := cache.Invalidations()
	if inv == 0 {
		t.Fatal("churn repair produced no cache invalidations")
	}
	// Rebuilt tables serve hits again: a second sweep adds no misses.
	_, misses0 := cache.Stats()
	for _, id := range nw.Peers() {
		if _, err := cache.Table(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := cache.Stats(); misses != misses0 {
		t.Fatal("rebuilt tables did not serve hits")
	}
	if got := cache.Invalidations(); got != inv {
		t.Fatalf("hit sweep moved the invalidation counter (%d -> %d)", inv, got)
	}
}
