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
//
// Data moves the way Chord moves it: a join takes one arc out of its
// successor's bucket and a departure hands its bucket to its successor.
// The store remembers the membership it last placed pairs under, and
// Rebalance re-homes only the buckets the membership change touched
// plus the strays — pairs a Put wrote, mid-repair, to a peer that was
// not their owner under that membership — so a settled event costs
// O(keys moved), holds one shard lock at a time and never stops the
// clients.
package dht

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

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

type stray struct {
	peer ident.ID
	key  string
}

// Store is the distributed key-value store: sharded per-peer buckets,
// the resolver that routes to them, the network Rebalance reads the
// membership from and the membership the pairs were last placed under.
type Store struct {
	nw      *rechord.Network
	resolve Resolver
	shards  [numShards]shard
	// placed is the sorted membership the last Rebalance (or New)
	// placed pairs under; Puts read it, so it is swapped whole. Empty
	// means none was recorded and every bucket is suspect.
	placed atomic.Pointer[[]ident.ID]
	// strays[i] lists the keys a Put wrote into one of shard i's
	// buckets whose owner under placed is another peer; the next
	// Rebalance re-homes them. shards[i].mu guards it. It sits apart
	// from the shards so they stay two to a cache line.
	strays [numShards][]stray
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
	peers := nw.Peers()
	s.placed.Store(&peers)
	return s
}

// homeOf returns the successor of x among the sorted, non-empty peers:
// ident.Successor without the closure of its sort.Search, since every
// Put asks it.
func homeOf(peers []ident.ID, x ident.ID) ident.ID {
	i, _ := slices.BinarySearch(peers, x)
	if i == len(peers) {
		i = 0
	}
	return peers[i]
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

// shardIndex picks an owner's shard by the top 6 bits of its
// identifier (numShards = 64).
func shardIndex(owner ident.ID) int { return int(uint64(owner) >> (64 - 6)) }

func (s *Store) shardOf(owner ident.ID) *shard { return &s.shards[shardIndex(owner)] }

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
	// Whether the write is a stray is judged against the membership
	// read under the shard lock, which orders it with Rebalance's sweep
	// of the shard; the search runs outside the lock and is redone only
	// if Rebalance swapped the membership in between.
	placed := s.placed.Load()
	isStray := misplaced(*placed, k.ID, owner)
	i := shardIndex(owner)
	sh := &s.shards[i]
	sh.mu.Lock()
	b := sh.buckets[owner]
	if b == nil {
		b = make(map[string]string)
		sh.buckets[owner] = b
	}
	b[k.Name] = value
	if now := s.placed.Load(); now != placed {
		isStray = misplaced(*now, k.ID, owner)
	}
	if isStray {
		s.strays[i] = append(s.strays[i], stray{owner, k.Name})
	}
	sh.mu.Unlock()
	return owner, hops, nil
}

// misplaced reports whether a pair for key x written at peer belongs,
// under the recorded membership placed, to another peer. With no
// membership recorded nothing is, since every bucket is swept.
func misplaced(placed []ident.ID, x, peer ident.ID) bool {
	return len(placed) > 0 && homeOf(placed, x) != peer
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

// Rebalance hands the stored pairs whose owner changed to their new
// owner after membership changes (the data movement Chord performs on
// join and leave) and reports how many pairs moved. It merges the
// membership the pairs were last placed under with the network's
// current one, so any number of events between two calls is covered:
// the affected buckets are each departed peer's and, for each joined
// peer, its old successor's, and only their pairs whose owner changed
// move, together with the strays Puts logged. The cost is O(keys
// moved) plus a merge of the two member lists; no bucket the events did
// not touch is read.
//
// Rebalance holds one shard lock at a time, so clients keep running. A
// pair is inserted at its new owner before it is deleted at the old
// one, so it can always be found in one of the two; an entry already
// at the new owner (a client wrote the key there meanwhile) wins over
// the moved one. A departed peer's bucket is dropped once empty. Len
// and Fingerprint may count a pair twice while it moves. Calls to
// Rebalance must not overlap: the caller that mutates the membership
// makes them.
func (s *Store) Rebalance() (moved int, err error) {
	peers := s.nw.Peers()
	if len(peers) == 0 {
		return 0, fmt.Errorf("dht: rebalance on empty network")
	}
	old := *s.placed.Load()
	// Publish the new membership before sweeping: a Put that takes a
	// shard lock after this is judged against it, so a write that lands
	// after its shard was swept is logged for the next call.
	s.placed.Store(&peers)
	r := rehome{s: s, peers: peers, all: len(old) == 0}
	if !r.all {
		r.affected = affected(old, peers)
	}
	for i := range s.shards {
		r.sweep(i)
	}
	return r.moved, nil
}

// affected returns, sorted, the peers whose buckets may hold a pair
// whose owner differs between the sorted memberships old and cur: the
// departed peers, and the old successor of each joined peer, whose arc
// the joiner split.
func affected(old, cur []ident.ID) []ident.ID {
	var out []ident.ID
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(old) && old[i] < cur[j]):
			out = append(out, old[i])
			i++
		case i == len(old) || cur[j] < old[i]:
			out = append(out, homeOf(old, cur[j]))
			j++
		default:
			i++
			j++
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// rehome is one Rebalance's sweep state.
type rehome struct {
	s        *Store
	peers    []ident.ID // the membership pairs are placed under
	affected []ident.ID // sorted; ignored when all is set
	all      bool       // no membership was recorded: every bucket is suspect
	moves    []move     // reused across shards
	moved    int
}

type move struct {
	from, to   ident.ID
	key, value string
}

func (r *rehome) member(peer ident.ID) bool {
	_, ok := slices.BinarySearch(r.peers, peer)
	return ok
}

// sweep re-homes shard i's misplaced pairs: it collects them under the
// shard's lock, inserts each at its owner under the owner's lock, then
// deletes the originals under the shard's lock again.
func (r *rehome) sweep(i int) {
	sh := &r.s.shards[i]
	r.moves = r.moves[:0]
	sh.mu.Lock()
	collect := func(peer ident.ID, b map[string]string) {
		for k, v := range b {
			if to := homeOf(r.peers, KeyID(k)); to != peer {
				r.moves = append(r.moves, move{peer, to, k, v})
			}
		}
		if len(b) == 0 && !r.member(peer) {
			delete(sh.buckets, peer)
		}
	}
	if r.all {
		for peer, b := range sh.buckets {
			collect(peer, b)
		}
	} else {
		// Peer identifiers' top bits pick the shard, so the affected
		// peers of shard i are one run of the sorted list.
		lo, _ := slices.BinarySearch(r.affected, ident.ID(uint64(i)<<(64-6)))
		for _, peer := range r.affected[lo:] {
			if shardIndex(peer) != i {
				break
			}
			if b, ok := sh.buckets[peer]; ok {
				collect(peer, b)
			}
		}
	}
	// A stray in a bucket collected above is collected twice; the
	// second insert and delete find nothing to do.
	for _, st := range r.s.strays[i] {
		if v, ok := sh.buckets[st.peer][st.key]; ok {
			if to := homeOf(r.peers, KeyID(st.key)); to != st.peer {
				r.moves = append(r.moves, move{st.peer, to, st.key, v})
			}
		}
	}
	clear(r.s.strays[i])
	r.s.strays[i] = r.s.strays[i][:0]
	sh.mu.Unlock()
	if len(r.moves) == 0 {
		return
	}

	for _, m := range r.moves {
		dst := r.s.shardOf(m.to)
		dst.mu.Lock()
		b := dst.buckets[m.to]
		if b == nil {
			b = make(map[string]string)
			dst.buckets[m.to] = b
		}
		if _, ok := b[m.key]; !ok {
			b[m.key] = m.value
		}
		dst.mu.Unlock()
	}

	sh.mu.Lock()
	for _, m := range r.moves {
		b := sh.buckets[m.from]
		if _, ok := b[m.key]; !ok {
			continue // collected twice, or deleted meanwhile
		}
		delete(b, m.key)
		r.moved++
		if len(b) == 0 && !r.member(m.from) {
			delete(sh.buckets, m.from)
		}
	}
	sh.mu.Unlock()
}
