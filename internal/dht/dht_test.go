package dht

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
)

func TestPutGetDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw, ids, err := churn.StableNetwork(context.Background(), 20, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nw)
	home := ids[0]
	if _, _, err := s.Put(home, "alpha", "1"); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get(ids[7], "alpha")
	if err != nil || v != "1" {
		t.Fatalf("Get = %q,%v; want 1,nil", v, err)
	}
	ok, _, err := s.Delete(ids[3], "alpha")
	if err != nil || !ok {
		t.Fatalf("Delete = %v,%v; want true,nil", ok, err)
	}
	if _, _, err := s.Get(home, "alpha"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of deleted key = %v, want ErrNotFound", err)
	}
	if ok, _, _ := s.Delete(home, "alpha"); ok {
		t.Error("double delete reported true")
	}
}

func TestTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw, ids, err := churn.StableNetwork(context.Background(), 8, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nw)
	bogus := ident.ID(424242)
	if _, _, err := s.Put(bogus, "k", "v"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Put from unknown peer = %v, want ErrUnknownPeer", err)
	}
	if _, _, err := s.Get(bogus, "k"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Get from unknown peer = %v, want ErrUnknownPeer", err)
	}
	if _, _, err := s.Delete(bogus, "k"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Delete from unknown peer = %v, want ErrUnknownPeer", err)
	}
	// A missing key on a healthy network is ErrNotFound, never
	// ErrUnknownPeer or a routing failure.
	_, _, err = s.Get(ids[0], "never-stored")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of absent key = %v, want ErrNotFound", err)
	}
	if errors.Is(err, ErrUnknownPeer) {
		t.Error("ErrNotFound must not match ErrUnknownPeer")
	}
}

func TestOwnerConsistentAcrossHomes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nw, ids, err := churn.StableNetwork(context.Background(), 30, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nw)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner1, _, err := s.Put(ids[rng.Intn(len(ids))], key, "x")
		if err != nil {
			t.Fatal(err)
		}
		owner2, _, err := s.Put(ids[rng.Intn(len(ids))], key, "x")
		if err != nil {
			t.Fatal(err)
		}
		if owner1 != owner2 {
			t.Fatalf("key %q routed to %s and %s from different homes", key, owner1, owner2)
		}
		want := ident.Successor(nw.Peers(), KeyID(key))
		if owner1 != want {
			t.Fatalf("key %q owned by %s, want consistent-hashing successor %s", key, owner1, want)
		}
	}
}

func TestCachedResolverAgreesWithWalker(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nw, ids, err := churn.StableNetwork(context.Background(), 24, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	walk := New(nw)
	cached := NewWithResolver(nw, routing.NewCache(nw))
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("obj-%d", i)
		o1, _, err := walk.Put(ids[rng.Intn(len(ids))], key, "v")
		if err != nil {
			t.Fatal(err)
		}
		o2, _, err := cached.Put(ids[rng.Intn(len(ids))], key, "v")
		if err != nil {
			t.Fatal(err)
		}
		if o1 != o2 {
			t.Fatalf("key %q: walker owner %s != cached owner %s", key, o1, o2)
		}
	}
}

func TestLoadSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw, ids, err := churn.StableNetwork(context.Background(), 16, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nw)
	const keys = 800
	for i := 0; i < keys; i++ {
		if _, _, err := s.Put(ids[i%len(ids)], fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	largest := 0
	for i := range s.shards {
		for _, b := range s.shards[i].buckets {
			largest = max(largest, len(b))
		}
	}
	// Consistent hashing with random ids is uneven but the max bucket
	// must stay well below the whole keyspace.
	if largest > keys/2 {
		t.Errorf("max bucket %d of %d keys: hashing badly skewed", largest, keys)
	}
}

func TestConcurrentClientsShardedStore(t *testing.T) {
	// Many clients hammering disjoint and overlapping keys through the
	// sharded store; run under -race this pins down the fine-grained
	// locking. The network is stable and only read, so no external
	// serialization is needed.
	rng := rand.New(rand.NewSource(8))
	nw, ids, err := churn.StableNetwork(context.Background(), 16, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithResolver(nw, routing.NewCache(nw))
	const workers = 8
	const opsEach = 150
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k%d", i%40*workers+w) // per-worker write ownership
				home := ids[(i+w)%len(ids)]
				if _, _, err := s.Put(home, key, fmt.Sprintf("v%d-%d", w, i)); err != nil {
					errs <- err
					return
				}
				if _, _, err := s.Get(home, fmt.Sprintf("k%d", i%40*workers)); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
				if i%10 == 9 {
					if _, _, err := s.Delete(home, key); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFingerprintIgnoresBucketPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nw, ids, err := churn.StableNetwork(context.Background(), 10, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nw)
	for i := 0; i < 100; i++ {
		if _, _, err := s.Put(ids[0], fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Fingerprint()
	// A join plus rebalance moves pairs between buckets without
	// changing the key -> value contents.
	rec, err := churn.Apply(context.Background(), nw, churn.Event{Kind: "join", ID: ident.ID(rng.Uint64() | 1), Contact: ids[0]}, 0)
	if err != nil || !rec.Stable {
		t.Fatalf("join failed: %v (stable=%v)", err, rec.Stable)
	}
	if _, err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if after := s.Fingerprint(); after != before {
		t.Errorf("fingerprint changed across rebalance: %x -> %x", before, after)
	}
	s.Put(ids[0], "k0", "different")
	if s.Fingerprint() == before {
		t.Error("fingerprint blind to a value change")
	}
}

func TestRebalanceAfterJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw, ids, err := churn.StableNetwork(context.Background(), 10, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nw)
	for i := 0; i < 200; i++ {
		if _, _, err := s.Put(ids[0], fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A new peer joins and the network re-stabilizes.
	rec, err := churn.Apply(context.Background(), nw, churn.Event{Kind: "join", ID: ident.ID(rng.Uint64() | 1), Contact: ids[0]}, 0)
	if err != nil || !rec.Stable {
		t.Fatalf("join failed: %v (stable=%v)", err, rec.Stable)
	}
	moved, err := s.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rebalance moved %d of 200 keys", moved)
	// After rebalancing, every key must be retrievable from any home.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		v, _, err := s.Get(nw.Peers()[i%nw.NumPeers()], key)
		if err != nil || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%q) = %q,%v after rebalance", key, v, err)
		}
	}
}

func TestRebalanceEmptyNetworkErrors(t *testing.T) {
	s := New(rechord.NewNetwork(rechord.Config{}))
	if _, err := s.Rebalance(); err == nil {
		t.Error("rebalance on empty network must error")
	}
}
