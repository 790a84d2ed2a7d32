package routing

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// TableSource resolves a peer's current routing table. Both the cache
// and the uncached per-hop TableOf fit this shape, so RouteTables is
// the single lookup implementation benchmarked against itself.
type TableSource func(id ident.ID) (*Table, error)

// RouteTables performs a classic Chord lookup using only per-peer
// routing tables: at each peer, if the key falls in (self, successor]
// the successor owns it; otherwise the lookup forwards to the closest
// candidate preceding the key (the finger that bisects the remaining
// distance). On a stable network this is exactly Chord's O(log n)
// greedy routing over the fingers Theorem 1.1 guarantees. numPeers
// bounds the walk; hops counts inter-peer forwards.
//
// Tables extracted mid-stabilization can be incomplete (no successor
// yet) or stale (a finger naming a departed peer); both surface as an
// error, and callers that must survive churn fall back to the
// state-walk Route, which tolerates partially repaired state.
func RouteTables(tables TableSource, numPeers int, from, key ident.ID) (owner ident.ID, hops int, err error) {
	return routeTables(tables, numPeers, from, key, nil)
}

// RouteTablesTraced is RouteTables with a per-lookup trace: the
// visited path is recorded hop by hop, so obs.PathHops(tr.Path)
// always equals the returned hop count — the single definition both
// the table lookup and the state-walk Route report through (hops =
// inter-peer forwards; the terminal owner is known to, not forwarded
// by, the last visited peer). A nil trace is the untraced fast path.
func RouteTablesTraced(tables TableSource, numPeers int, from, key ident.ID, tr *obs.LookupTrace) (owner ident.ID, hops int, err error) {
	owner, hops, err = routeTables(tables, numPeers, from, key, tr)
	if tr != nil && err != nil {
		tr.Err = err.Error()
	}
	return owner, hops, err
}

func routeTables(tables TableSource, numPeers int, from, key ident.ID, tr *obs.LookupTrace) (owner ident.ID, hops int, err error) {
	cur := from
	if tr != nil {
		tr.From, tr.Key = from, key
		tr.Path = append(tr.Path[:0], from)
	}
	arrive := func(owner ident.ID) (ident.ID, int, error) {
		if tr != nil {
			tr.Owner = owner
		}
		return owner, hops, nil
	}
	forward := func(to ident.ID) {
		cur = to
		hops++
		if tr != nil {
			tr.Path = append(tr.Path, to)
		}
	}
	limit := 8*numPeers + 16
	// A lookup stranded in the top identifier segment — where rr, being
	// linear, leaves the uppermost peer without a successor — switches
	// to descent mode: hop along each table's MinKnown toward the
	// global minimum node. This mirrors Route's routeToGlobalMin on
	// raw state; the floor enforces strict monotone progress so a
	// mid-churn table cannot cycle the descent.
	//
	// Reaching the minimum node's owner does NOT yet decide the key: a
	// lookup whose home lies clockwise past its key must cross the zero
	// point, and it strands at the top exactly like a wrap-segment key
	// does, because the top peer's fingers are too coarse to name the
	// first peers after zero. So the first descent resumes greedy
	// routing from the minimum's owner (ascending toward the key
	// without wrapping again); only a lookup that strands a second time
	// has no real peer between zero and its key and belongs to the wrap
	// owner the descent recorded.
	descending := false
	wrapped := false       // a completed descent already crossed zero
	var wrapOwner ident.ID // owner recorded at the min node's owner
	floor := ^ident.ID(0)
	for iter := 0; iter <= limit; iter++ {
		if key == cur || numPeers == 1 {
			return arrive(cur)
		}
		t, err := tables(cur)
		if err != nil {
			return 0, hops, err
		}
		if t.HasWrap && ident.InRightHalfOpen(key, t.WrapFrom, t.WrapTo) {
			return arrive(t.WrapOwner)
		}
		// Termination on the successor interval applies in both modes: a
		// descent can land on the peer just below the key's owner (the
		// global minimum peer, when the key sits right above it).
		if t.HasSucc && ident.InRightHalfOpen(key, cur, t.Successor) {
			return arrive(t.Successor)
		}
		if !descending {
			var best ident.ID
			found := false
			for _, c := range t.hops {
				if c == key {
					// A candidate sitting exactly on the key owns it
					// (it is its own successor).
					return arrive(c)
				}
				if !ident.Between(c, cur, key) {
					continue
				}
				if !found || ident.Dist(cur, c) > ident.Dist(cur, best) {
					best, found = c, true
				}
			}
			if found {
				forward(best)
				continue
			}
			descending = true
		}
		if t.OwnsMinNode {
			if wrapped {
				return arrive(t.MinNodeOwner)
			}
			// First arrival at the zero point: record the wrap owner and
			// go back to greedy mode on this same peer's table.
			wrapped = true
			wrapOwner = t.MinNodeOwner
			descending = false
			continue
		}
		if wrapped {
			// Stranded again after crossing zero: no real peer lies
			// between zero and the key, so the key is in the wrap
			// segment and belongs to the owner recorded there.
			return arrive(wrapOwner)
		}
		if t.MinKnownOwner != cur && t.MinKnownID < floor {
			floor = t.MinKnownID
			forward(t.MinKnownOwner)
			continue
		}
		// A correct table always lets the lookup either terminate or
		// make progress; reaching here means the table is still being
		// repaired.
		return 0, hops, fmt.Errorf("routing: no progress from %s toward %s", cur, key)
	}
	return 0, hops, fmt.Errorf("routing: table lookup for %s exceeded %d hops", key, limit)
}

// RouteUncached is the baseline table lookup: every hop re-derives the
// peer's table from its Re-Chord state via TableOf. It exists to be
// measured against Cache.Route (see BenchmarkTableLookup).
func RouteUncached(nw *rechord.Network, from, key ident.ID) (ident.ID, int, error) {
	return RouteTables(func(id ident.ID) (*Table, error) { return TableOf(nw, id) }, nw.NumPeers(), from, key)
}

type cacheEntry struct {
	gen   uint32 // incarnation the table was built for
	epoch int
	table *Table
}

// Cache memoizes per-peer routing tables and invalidates them through
// the network's change epochs instead of rebuilding per lookup: a
// cached table is served only while rechord.Network.PeerSlotEpoch still
// returns the epoch the table was derived under. On a quiescent
// network every epoch is stable, so lookups stop touching Re-Chord
// state entirely; after churn, exactly the peers whose state the
// re-stabilization rewrote are rebuilt.
//
// Storage is a dense slot-indexed slice, addressed by the network's
// interner slot for the peer (rechord.Network.PeerSlot) rather than an
// id-keyed map: a lookup is a slice index plus a generation check, and
// the cache's footprint is one entry per slot ever used. The entry's
// generation guards slot reuse — a table built for one incarnation is
// never served to a later tenant of the same slot.
//
// The cache itself is safe for concurrent use. Reads of the underlying
// network are NOT synchronized here: callers that interleave lookups
// with Step/Join/Leave/Fail must serialize them externally (readers
// share, mutators exclude — see internal/workload for the pattern).
type Cache struct {
	nw *rechord.Network

	mu    sync.RWMutex
	slots []cacheEntry

	hits, misses atomic.Uint64
	// invalidations counts cached tables found stale at lookup time —
	// the entry existed but its peer's generation or change epoch had
	// moved. It is the churn-pressure signal: misses on never-cached
	// slots are warmup, invalidations are rebuild work the network's
	// mutations forced.
	invalidations atomic.Uint64
}

// NewCache creates an empty cache over the network.
func NewCache(nw *rechord.Network) *Cache {
	return &Cache{nw: nw, slots: make([]cacheEntry, nw.SlotSpan())}
}

// Table returns the peer's current routing table, rebuilding it only
// when the peer's change epoch moved since the cached copy was built.
// The returned table is shared and must not be mutated.
func (c *Cache) Table(id ident.ID) (*Table, error) {
	t, _, err := c.table(id)
	return t, err
}

// table is Table plus whether the fetch was served from the cache,
// for per-lookup trace attribution.
func (c *Cache) table(id ident.ID) (*Table, bool, error) {
	slot, gen, epoch, ok := c.nw.PeerSlotEpoch(id)
	if !ok {
		return nil, false, fmt.Errorf("routing: unknown peer %s", id)
	}
	c.mu.RLock()
	var e cacheEntry
	if slot < len(c.slots) {
		e = c.slots[slot]
	}
	c.mu.RUnlock()
	if e.table != nil {
		if e.gen == gen && e.epoch == epoch {
			c.hits.Add(1)
			return e.table, true, nil
		}
		c.invalidations.Add(1)
	}
	t, err := TableOf(c.nw, id)
	if err != nil {
		return nil, false, err
	}
	c.misses.Add(1)
	c.mu.Lock()
	for slot >= len(c.slots) {
		c.slots = append(c.slots, cacheEntry{})
	}
	c.slots[slot] = cacheEntry{gen: gen, epoch: epoch, table: t}
	c.mu.Unlock()
	return t, false, nil
}

// Route performs a table-based Chord lookup through the cache.
func (c *Cache) Route(from, key ident.ID) (owner ident.ID, hops int, err error) {
	return RouteTables(c.Table, c.nw.NumPeers(), from, key)
}

// RouteTraced is Route with a per-lookup trace: besides the visited
// path, every table fetch along the lookup is attributed to the trace
// as a cache hit or miss.
func (c *Cache) RouteTraced(from, key ident.ID, tr *obs.LookupTrace) (owner ident.ID, hops int, err error) {
	if tr == nil {
		return c.Route(from, key)
	}
	src := func(id ident.ID) (*Table, error) {
		t, hit, err := c.table(id)
		if err == nil {
			if hit {
				tr.CacheHits++
			} else {
				tr.CacheMisses++
			}
		}
		return t, err
	}
	return RouteTablesTraced(src, c.nw.NumPeers(), from, key, tr)
}

// Resolve is Route under the name the DHT's resolver plug expects.
func (c *Cache) Resolve(from, key ident.ID) (owner ident.ID, hops int, err error) {
	return c.Route(from, key)
}

// Prune drops entries for peers that have departed (their slot's
// generation moved on) or whose epoch moved, bounding the live tables
// under sustained churn. It returns how many entries were dropped.
func (c *Cache) Prune() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for slot := range c.slots {
		e := &c.slots[slot]
		if e.table == nil {
			continue
		}
		cur, gen, epoch, ok := c.nw.PeerSlotEpoch(e.table.Self)
		if !ok || cur != slot || gen != e.gen || epoch != e.epoch {
			*e = cacheEntry{}
			dropped++
		}
	}
	return dropped
}

// Len returns the number of cached tables.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for i := range c.slots {
		if c.slots[i].table != nil {
			n++
		}
	}
	return n
}

// Stats returns the hit/miss counters since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Invalidations returns how many cached tables were found stale at
// lookup time since creation (a subset of the misses).
func (c *Cache) Invalidations() uint64 {
	return c.invalidations.Load()
}

// Walker adapts the state-walk Route (which hops along raw Re-Chord
// edges and tolerates mid-stabilization state) to the same Resolve
// shape as Cache, so the DHT and the workload engine can swap between
// them.
type Walker struct {
	NW *rechord.Network
}

// Resolve routes from the home peer to the key's owner, returning the
// number of inter-peer hops (obs.PathHops of the walk's visited path
// — the same definition RouteTables counts directly).
func (w Walker) Resolve(from, key ident.ID) (owner ident.ID, hops int, err error) {
	return w.ResolveTraced(from, key, nil)
}

// ResolveTraced is Resolve with a per-lookup trace carrying the
// visited path. The state walk never consults the table cache, so the
// trace's cache counters stay zero.
func (w Walker) ResolveTraced(from, key ident.ID, tr *obs.LookupTrace) (owner ident.ID, hops int, err error) {
	owner, path, routeErr := Route(w.NW, from, key)
	if tr != nil {
		tr.From, tr.Key, tr.Owner = from, key, owner
		tr.Path = append(tr.Path[:0], path...)
		if routeErr != nil {
			tr.Err = routeErr.Error()
		}
	}
	hops = obs.PathHops(path)
	if routeErr != nil {
		return 0, hops, routeErr
	}
	return owner, hops, nil
}

// Failover routes through the epoch-cached table router and falls back
// to the state walk when a table is incomplete or stale mid-churn —
// table routing is the fast path, the walk is the one that tolerates
// partially repaired state.
type Failover struct {
	Cache *Cache
	// Fallbacks counts the lookups the state walk had to recover.
	Fallbacks *atomic.Int64
}

func (r Failover) Resolve(from, key ident.ID) (ident.ID, int, error) {
	if owner, hops, err := r.Cache.Resolve(from, key); err == nil {
		return owner, hops, nil
	}
	r.Fallbacks.Add(1)
	return Walker{NW: r.Cache.nw}.Resolve(from, key)
}
