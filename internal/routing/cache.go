package routing

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// routeTables performs a classic Chord lookup using only per-peer
// routing tables: at each peer, if the key falls in (self, successor]
// the successor owns it; otherwise the lookup forwards to the closest
// candidate preceding the key (the finger that bisects the remaining
// distance). On a stable network this is exactly Chord's O(log n)
// greedy routing over the fingers Theorem 1.1 guarantees. numPeers
// bounds the walk; hops counts inter-peer forwards. It is the single
// table lookup: the view's tables and the uncached per-hop TableOf
// both plug in as the source, so it is benchmarked against itself.
//
// Tables extracted mid-stabilization can be incomplete (no successor
// yet) or stale (a finger naming a departed peer); both surface as an
// error. A caller that must survive churn routes again on the next
// published view (the workload engine's clients); one with nobody
// repairing the network under it reports the failure (the facade).
//
// A non-nil trace records the visited path hop by hop, so
// obs.PathHops(tr.Path) always equals the returned hop count — the
// single definition both the table lookup and the state-walk Route
// report through (hops = inter-peer forwards; the terminal owner is
// known to, not forwarded by, the last visited peer).
func routeTables(tables func(ident.ID) (*Table, error), numPeers int, from, key ident.ID, tr *obs.LookupTrace) (owner ident.ID, hops int, err error) {
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
			if hops > 0 && errors.Is(err, ErrUnknownPeer) {
				// A finger naming a departed peer is a routing failure of
				// a mid-repair table, not an unknown home.
				err = fmt.Errorf("routing: hop %d reached departed peer %s", hops, cur)
			}
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
// measured against Cache.Resolve (see BenchmarkTableLookup).
func RouteUncached(nw *rechord.Network, from, key ident.ID) (ident.ID, int, error) {
	return routeTables(func(id ident.ID) (*Table, error) { return TableOf(nw, id) }, nw.NumPeers(), from, key, nil)
}

// View is what a lookup may read without touching the network: an
// immutable membership snapshot (identifier -> interner slot, members
// in ascending order) plus one atomically swapped *Table per slot, nil
// before the first publish. A join or departure is published as a new
// View with its own slots and a table is replaced whole, so every table
// a lookup sees is one member's state at one round barrier.
type View struct {
	c       *Cache
	version uint64 // rechord.Network.MembershipVersion it was taken under
	slots   map[ident.ID]int32
	peers   []ident.ID
	tables  []atomic.Pointer[Table] // by slot
}

// Has reports whether the peer is a member.
func (v *View) Has(id ident.ID) bool {
	_, ok := v.slots[id]
	return ok
}

// Peers returns the members in ascending order (shared: do not mutate).
func (v *View) Peers() []ident.ID { return v.peers }

// Resolve is the lock-free table lookup: it reads the published tables
// and nothing of the network, so it is safe while the engine steps.
func (v *View) Resolve(from, key ident.ID) (owner ident.ID, hops int, err error) {
	return v.ResolveTraced(from, key, nil)
}

// table returns the member's published table. Only a view nobody has
// published to yet lacks one.
func (v *View) table(id ident.ID) (*Table, error) {
	slot, ok := v.slots[id]
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownPeer, id)
	}
	if t := v.tables[slot].Load(); t != nil && t.Self == id {
		return t, nil
	}
	return nil, fmt.Errorf("routing: no published table for %s", id)
}

// ResolveTraced is Resolve with a per-lookup trace: the visited path
// and how many tables the view served along it. It is the one table
// lookup every reader goes through. The home check is the view's
// membership; the tables served are counted as hits, once per lookup
// rather than per hop.
func (v *View) ResolveTraced(from, key ident.ID, tr *obs.LookupTrace) (owner ident.ID, hops int, err error) {
	if !v.Has(from) {
		return 0, 0, fmt.Errorf("%w %s", ErrUnknownPeer, from)
	}
	served := 0
	owner, hops, err = routeTables(func(id ident.ID) (*Table, error) {
		t, err := v.table(id)
		if err == nil {
			served++
		}
		return t, err
	}, len(v.peers), from, key, tr)
	v.c.hits.Add(uint64(served))
	if tr != nil {
		tr.CacheHits = served
		if err != nil {
			tr.Err = err.Error()
		}
	}
	return owner, hops, err
}

// Cache is the published routing view of a network: per-peer tables
// derived once and kept level with the network through its change
// epochs instead of rebuilt per lookup. A table is fresh exactly while
// rechord.Network.PeerSlotEpoch still returns the generation and epoch
// it was read under, so on a quiescent network lookups never touch
// Re-Chord state, and after churn exactly the peers the repair rewrote
// are rebuilt — by whoever mutated the network, calling Publish.
//
// There is one way to resolve a key: on a View, which reads nothing of
// the network, so readers may run while it is stepped. Readers whose
// mutator publishes for them (the workload's clients, the cluster
// facade) take View(); Table, Resolve and Prune are for
// callers serialized against mutation who have no publisher, and
// publish first when the network moved. All state is atomics: the cache
// holds no lock and every reader may run beside every other.
type Cache struct {
	nw   *rechord.Network
	view atomic.Pointer[View]
	// clock is the network's epoch clock as of the last publish (-1
	// before the first): while it and the view's membership version
	// equal the network's, every member's table is in the view and fresh.
	clock atomic.Int64

	// hits counts tables served from the view, misses tables built,
	// invalidations the builds that replaced a table whose peer's
	// generation or epoch had moved (churn pressure, not warmup).
	hits, misses, invalidations atomic.Uint64
}

// NewCache creates a cache over the network holding its membership and
// no tables yet: the first Publish builds them.
func NewCache(nw *rechord.Network) *Cache {
	c := &Cache{nw: nw}
	c.view.Store(c.newView(nil))
	c.clock.Store(-1)
	return c
}

// newView snapshots the membership, carrying the old view's tables over
// into slots of its own: a superseded view is never written again.
func (c *Cache) newView(old *View) *View {
	peers := c.nw.Peers()
	v := &View{c: c, version: c.nw.MembershipVersion(), peers: peers, slots: make(map[ident.ID]int32, len(peers)),
		tables: make([]atomic.Pointer[Table], c.nw.SlotSpan())}
	for _, id := range peers {
		slot, _, _ := c.nw.PeerSlot(id)
		v.slots[id] = int32(slot)
	}
	if old != nil {
		for slot := range old.tables[:min(len(old.tables), len(v.tables))] {
			v.tables[slot].Store(old.tables[slot].Load())
		}
	}
	return v
}

// Publish levels the view with the network and returns it: a new
// membership snapshot when a peer joined or departed, and a table built
// for every member without one or whose table was read under another
// generation or epoch than its peer reports now. It does nothing when
// neither the epoch clock nor the membership moved since the last
// publish. The caller must be serialized against network mutation
// (normally: is the mutator).
func (c *Cache) Publish() *View {
	v := c.view.Load()
	if v.version != c.nw.MembershipVersion() {
		v = c.newView(v)
	} else if c.clock.Load() == int64(c.nw.EpochClock()) {
		return v
	}
	for _, id := range v.peers {
		slot, gen, epoch, _ := c.nw.PeerSlotEpoch(id)
		if t := v.tables[slot].Load(); t != nil {
			if t.Self == id && t.gen == gen && t.epoch == epoch {
				continue
			}
			c.invalidations.Add(1)
		}
		t, _ := TableOf(c.nw, id) // a member always has a table to derive
		c.misses.Add(1)
		v.tables[slot].Store(t)
	}
	c.clock.Store(int64(c.nw.EpochClock()))
	c.view.Store(v)
	return v
}

// View returns the last published view.
func (c *Cache) View() *View { return c.view.Load() }

// Table returns the peer's current routing table. The returned table is
// shared and must not be mutated.
func (c *Cache) Table(id ident.ID) (*Table, error) {
	t, err := c.Publish().table(id)
	if err == nil {
		c.hits.Add(1)
	}
	return t, err
}

// Resolve performs a table-based Chord lookup on the view, published
// first when the network moved, under the name the DHT's resolver plug
// expects.
func (c *Cache) Resolve(from, key ident.ID) (owner ident.ID, hops int, err error) {
	return c.Publish().ResolveTraced(from, key, nil)
}

// Prune drops the tables of departed peers (publishing first when the
// network moved, so nothing stale is left either), bounding the held
// tables under sustained churn. It returns how many were dropped.
func (c *Cache) Prune() int {
	v := c.Publish()
	dropped := 0
	for slot := range v.tables {
		t := v.tables[slot].Load()
		if t == nil {
			continue
		}
		if cur, ok := v.slots[t.Self]; !ok || cur != int32(slot) {
			v.tables[slot].Store(nil)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of tables held. It reads no network state.
func (c *Cache) Len() int {
	v := c.view.Load()
	n := 0
	for slot := range v.tables {
		if v.tables[slot].Load() != nil {
			n++
		}
	}
	return n
}

// Stats returns the hit/miss counters since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Invalidations returns how many tables were rebuilt since creation
// because their peer's generation or epoch had moved (a subset of the
// misses).
func (c *Cache) Invalidations() uint64 {
	return c.invalidations.Load()
}

// ViewResolver is the serving path's resolver, shared by the workload
// engine and the cluster facade: the table lookup on the cache's last
// published view. It reads nothing of the network; whoever mutates the
// network publishes. A lookup that cannot complete on a mid-repair view
// fails, and the caller retries on a later view or reports it.
type ViewResolver struct {
	Cache *Cache
}

func (r ViewResolver) Resolve(from, key ident.ID) (ident.ID, int, error) {
	return r.Cache.View().Resolve(from, key)
}

// Walker adapts the state-walk Route (which hops along raw Re-Chord
// edges) to the same Resolve shape: the paper's lookup experiment and
// the oracle the table lookup is tested against. It reads the network,
// so mutators must be excluded.
type Walker struct {
	NW *rechord.Network
}

// Resolve routes from the home peer to the key's owner, returning the
// number of inter-peer hops (obs.PathHops of the walk's visited path
// — the same definition routeTables counts directly).
func (w Walker) Resolve(from, key ident.ID) (owner ident.ID, hops int, err error) {
	owner, path, err := Route(w.NW, from, key)
	return owner, obs.PathHops(path), err
}
