// Package dht is a consistent-hashing key-value store running on top
// of a stabilized Re-Chord network — the kind of application the paper
// means by "faithfully emulate any applications on top of Chord"
// (Theorem 1.1). Every operation is routed over the overlay (by
// default through routing.Route; callers serving traffic plug in the
// table router over the published view), so it exercises exactly the
// edges the self-stabilization protocol maintains.
//
// Storage is sharded: keys live in per-peer buckets, and the buckets
// are spread over fixed shards each guarded by its own lock, so
// concurrent clients touching different owners never contend. The
// store itself reads the network only in Rebalance; whether an
// operation may run while the network is being mutated is the
// resolver's contract — the state walk (routing.Walker) and
// routing.Cache.Resolve, which publishes before it reads, need mutators
// excluded; routing.ViewResolver, which the workload engine and the
// cluster facade serve from, reads only the published view and does not.
package dht

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
)

// Typed operation errors, matchable with errors.Is.
var (
	// ErrUnknownPeer reports an operation issued from a home peer that
	// is not in the network.
	ErrUnknownPeer = errors.New("dht: unknown home peer")
	// ErrNotFound reports a Get whose routing succeeded but whose key
	// is absent at the owner — distinct from a routing failure, after
	// which nothing is known about the key.
	ErrNotFound = errors.New("dht: key not found")
)

// Outcome classifies an operation's error for the serving-path metrics
// (obs.WorkloadMetrics.ObserveOp): nil, a key absent at its owner, an
// unknown home peer, or anything else — a routing failure.
func Outcome(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OpOK
	case errors.Is(err, ErrNotFound):
		return obs.OpNotFound
	case errors.Is(err, ErrUnknownPeer):
		return obs.OpUnknownPeer
	default:
		return obs.OpRouteError
	}
}

// Resolver locates the owner of a key starting from a home peer,
// returning the number of inter-peer hops the lookup took. It also
// answers the home check: a lookup from a peer that is not in the
// network fails with an error matching routing.ErrUnknownPeer, which
// the store reports as ErrUnknownPeer. routing.Walker (state-walk) and
// routing.ViewResolver (table routing over the published view)
// implement it.
type Resolver interface {
	Resolve(from, key ident.ID) (owner ident.ID, hops int, err error)
}

// numShards spreads the per-peer buckets over independently locked
// shards. Peer identifiers are uniform in [0,1), so the top bits give
// an even spread.
const numShards = 64

type shard struct {
	mu      sync.RWMutex
	buckets map[ident.ID]map[string]string // peer -> key -> value
}

// Store is the distributed key-value store: sharded per-peer buckets,
// the resolver that routes to them and the network Rebalance reads the
// membership from.
type Store struct {
	nw      *rechord.Network
	resolve Resolver
	shards  [numShards]shard
}

// New creates a store over the network, routed by the state-walk
// router. The network should be stable; operations return errors when
// routing cannot complete.
func New(nw *rechord.Network) *Store {
	return NewWithResolver(nw, routing.Walker{NW: nw})
}

// NewWithResolver creates a store with a custom routing strategy (the
// workload engine and the cluster facade plug in routing.ViewResolver,
// the table router over the published view).
func NewWithResolver(nw *rechord.Network, r Resolver) *Store {
	s := &Store{nw: nw, resolve: r}
	for i := range s.shards {
		s.shards[i].buckets = make(map[ident.ID]map[string]string)
	}
	return s
}

// KeyID returns the identifier a key hashes to.
func KeyID(key string) ident.ID { return ident.Hash(key) }

// Key is a key's name together with the identifier it hashes to. The
// store's operations take a Key, so a caller that issues many
// operations on the same key hashes it once (KeyOf) instead of on every
// operation; the string-keyed methods hash on each call.
type Key struct {
	Name string
	ID   ident.ID
}

// KeyOf hashes a key's name.
func KeyOf(name string) Key { return Key{Name: name, ID: KeyID(name)} }

func (s *Store) shardOf(owner ident.ID) *shard {
	return &s.shards[uint64(owner)>>(64-6)] // top 6 bits: numShards = 64
}

// locate routes from the home peer to the key's owner for the named
// operation, translating the resolver's errors into the store's.
func (s *Store) locate(op string, home ident.ID, k Key) (ident.ID, int, error) {
	owner, hops, err := s.resolve.Resolve(home, k.ID)
	switch {
	case err == nil:
		return owner, hops, nil
	case errors.Is(err, routing.ErrUnknownPeer):
		return 0, 0, fmt.Errorf("dht: %s %q: %w: %s", op, k.Name, ErrUnknownPeer, home)
	default:
		return 0, hops, fmt.Errorf("dht: %s %q: %w", op, k.Name, err)
	}
}

// ResolveKey routes from the home peer to the key's owner without
// touching stored data, returning the owner and the number of
// inter-peer hops the lookup took.
func (s *Store) ResolveKey(home ident.ID, key string) (ident.ID, int, error) {
	return s.Locate(home, KeyOf(key))
}

// Locate is ResolveKey for a hashed key.
func (s *Store) Locate(home ident.ID, k Key) (ident.ID, int, error) {
	return s.locate("lookup", home, k)
}

// Put stores the key-value pair, routing from the given home peer to
// the key's owner. It returns the owner and the number of inter-peer
// hops the lookup took.
func (s *Store) Put(home ident.ID, key, value string) (ident.ID, int, error) {
	return s.PutKey(home, KeyOf(key), value)
}

// PutKey is Put for a hashed key.
func (s *Store) PutKey(home ident.ID, k Key, value string) (ident.ID, int, error) {
	owner, hops, err := s.locate("put", home, k)
	if err != nil {
		return 0, hops, err
	}
	sh := s.shardOf(owner)
	sh.mu.Lock()
	b := sh.buckets[owner]
	if b == nil {
		b = make(map[string]string)
		sh.buckets[owner] = b
	}
	b[k.Name] = value
	sh.mu.Unlock()
	return owner, hops, nil
}

// Get fetches the value for a key, routing from the home peer. A nil
// error means the key was found; ErrNotFound, returned bare so a miss
// costs no formatting, means routing reached the owner but the key is
// absent there; any other error is a routing failure, after which
// nothing is known about the key.
func (s *Store) Get(home ident.ID, key string) (string, int, error) {
	return s.GetKey(home, KeyOf(key))
}

// GetKey is Get for a hashed key.
func (s *Store) GetKey(home ident.ID, k Key) (string, int, error) {
	owner, hops, err := s.locate("get", home, k)
	if err != nil {
		return "", hops, err
	}
	sh := s.shardOf(owner)
	sh.mu.RLock()
	v, ok := sh.buckets[owner][k.Name]
	sh.mu.RUnlock()
	if !ok {
		return "", hops, ErrNotFound
	}
	return v, hops, nil
}

// Delete removes a key, routing from the home peer. It reports whether
// the key existed.
func (s *Store) Delete(home ident.ID, key string) (bool, int, error) {
	return s.DeleteKey(home, KeyOf(key))
}

// DeleteKey is Delete for a hashed key.
func (s *Store) DeleteKey(home ident.ID, k Key) (bool, int, error) {
	owner, hops, err := s.locate("delete", home, k)
	if err != nil {
		return false, hops, err
	}
	sh := s.shardOf(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.buckets[owner]
	if _, ok := b[k.Name]; !ok {
		return false, hops, nil
	}
	delete(b, k.Name)
	return true, hops, nil
}

// Len returns the total number of stored pairs.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, b := range sh.buckets {
			n += len(b)
		}
		sh.mu.RUnlock()
	}
	return n
}

// BucketSizes returns how many keys each peer holds, for load-balance
// analysis (consistent hashing spreads keys evenly in expectation).
func (s *Store) BucketSizes() map[ident.ID]int {
	out := make(map[ident.ID]int)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for p, b := range sh.buckets {
			if len(b) > 0 {
				out[p] = len(b)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Fingerprint returns an order-insensitive hash of the key -> value
// contents, deliberately ignoring which peer's bucket a pair sits in:
// two runs that stored the same data fingerprint identically even if
// churn timing placed pairs differently. The workload engine uses it
// to assert reproducibility.
func (s *Store) Fingerprint() uint64 {
	var fp uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, b := range sh.buckets {
			for k, v := range b {
				h := fnv.New64a()
				h.Write([]byte(k))
				h.Write([]byte{0})
				h.Write([]byte(v))
				fp ^= h.Sum64()
			}
		}
		sh.mu.RUnlock()
	}
	return fp
}

// Rebalance reassigns every stored pair to its current owner, used
// after membership changes (the data-movement step Chord performs on
// join/leave). It reports how many pairs moved. Rebalance excludes
// concurrent store operations by taking every shard lock.
func (s *Store) Rebalance() (moved int, err error) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	peers := s.nw.Peers()
	if len(peers) == 0 {
		return 0, fmt.Errorf("dht: rebalance on empty network")
	}
	type pair struct{ k, v string }
	fresh := make(map[ident.ID][]pair)
	for i := range s.shards {
		for oldOwner, b := range s.shards[i].buckets {
			for k, v := range b {
				owner := ident.Successor(peers, KeyID(k))
				fresh[owner] = append(fresh[owner], pair{k, v})
				if owner != oldOwner {
					moved++
				}
			}
		}
		s.shards[i].buckets = make(map[ident.ID]map[string]string)
	}
	for owner, pairs := range fresh {
		sh := s.shardOf(owner)
		b := make(map[string]string, len(pairs))
		for _, p := range pairs {
			b[p.k] = p.v
		}
		sh.buckets[owner] = b
	}
	return moved, nil
}
