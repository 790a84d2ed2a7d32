package dht

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
)

// placement is a copy of the store's contents: peer -> key -> value.
type placement map[ident.ID]map[string]string

// contents copies the store's non-empty buckets.
func contents(s *Store) placement {
	out := placement{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for peer, b := range sh.buckets {
			if len(b) > 0 {
				out[peer] = maps.Clone(b)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// fullPass is the store's old Rebalance, kept as the oracle: it
// re-homes every stored pair onto its successor among peers and counts
// the pairs that change bucket. When a key sits in several buckets the
// copy already at its owner wins; copies that all have to move leave
// the winner open, and ambiguous lists every value each such key may
// end up with.
func fullPass(before placement, peers []ident.ID) (want placement, moved int, ambiguous map[string][]string) {
	want, ambiguous = placement{}, map[string][]string{}
	for peer, b := range before {
		for k, v := range b {
			owner := ident.Successor(peers, KeyID(k))
			if owner == peer {
				continue
			}
			moved++
			if _, home := before[owner][k]; home {
				continue
			}
			ambiguous[k] = append(ambiguous[k], v)
		}
	}
	for peer, b := range before {
		for k, v := range b {
			owner := ident.Successor(peers, KeyID(k))
			if _, home := before[owner][k]; owner != peer && (home || len(ambiguous[k]) > 1) {
				continue
			}
			if want[owner] == nil {
				want[owner] = map[string]string{}
			}
			want[owner][k] = v
		}
	}
	for k, vs := range ambiguous {
		if len(vs) == 1 {
			delete(ambiguous, k)
		}
	}
	return want, moved, ambiguous
}

// checkedRebalance runs Rebalance and checks it against fullPass: the
// same pairs moved, every pair at its owner, the oracle's contents and
// Len, no bucket left for a departed peer, and — when no key was stored
// twice — Len and Fingerprint unchanged.
func checkedRebalance(t testing.TB, s *Store, label string) int {
	t.Helper()
	peers := s.nw.Peers()
	before := contents(s)
	want, wantMoved, ambiguous := fullPass(before, peers)
	n, fp := s.Len(), s.Fingerprint()
	moved, err := s.Rebalance()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if moved != wantMoved {
		t.Errorf("%s: Rebalance moved %d pairs, the full pass moves %d", label, moved, wantMoved)
	}
	got := contents(s)
	for peer, b := range got {
		for k, v := range b {
			if owner := ident.Successor(peers, KeyID(k)); owner != peer {
				t.Fatalf("%s: key %q sits at %s, its owner is %s", label, k, peer, owner)
			}
			if vs, ok := ambiguous[k]; ok {
				if !slices.Contains(vs, v) {
					t.Fatalf("%s: key %q = %q, want one of %q", label, k, v, vs)
				}
				continue
			}
			if w, ok := want[peer][k]; !ok || w != v {
				t.Fatalf("%s: key %q = %q at %s, the full pass has %q (present %v)", label, k, v, peer, w, ok)
			}
		}
	}
	for peer, b := range want {
		for k := range b {
			if _, ok := got[peer][k]; !ok {
				t.Fatalf("%s: key %q missing at its owner %s", label, k, peer)
			}
		}
	}
	for i := range s.shards {
		for peer := range s.shards[i].buckets {
			if _, ok := slices.BinarySearch(peers, peer); !ok {
				t.Errorf("%s: a bucket is left for departed peer %s", label, peer)
			}
		}
	}
	wantLen := pairs(want) + len(ambiguous)
	if s.Len() != wantLen {
		t.Errorf("%s: Len %d -> %d, the full pass leaves %d", label, n, s.Len(), wantLen)
	}
	if wantLen == n && s.Fingerprint() != fp {
		t.Errorf("%s: Fingerprint %x -> %x with no pair dropped", label, fp, s.Fingerprint())
	}
	return moved
}

func pairs(p placement) int {
	n := 0
	for _, b := range p {
		n += len(b)
	}
	return n
}

// strays counts the writes logged for the next Rebalance.
func strays(s *Store) int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.strays[i])
		s.shards[i].mu.RUnlock()
	}
	return n
}

// successorResolver routes every lookup straight to the key's owner
// under the network's current membership — a stand-in router for
// stores over networks that were never stabilized.
type successorResolver struct{ nw *rechord.Network }

func (r successorResolver) Resolve(_, key ident.ID) (ident.ID, int, error) {
	return ident.Successor(r.nw.Peers(), key), 0, nil
}

// thirdPeer answers one key with a fixed peer, as a mid-repair table
// naming a peer that owns the key under neither membership would, and
// defers every other lookup.
type thirdPeer struct {
	Resolver
	key  ident.ID
	peer ident.ID
}

func (r thirdPeer) Resolve(from, key ident.ID) (ident.ID, int, error) {
	if key == r.key {
		return r.peer, 1, nil
	}
	return r.Resolver.Resolve(from, key)
}

func filledStore(t testing.TB, n int, seed int64, keys int) (*rechord.Network, *Store, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw, ids, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithResolver(nw, routing.NewCache(nw))
	for i := 0; i < keys; i++ {
		if _, _, err := s.Put(ids[i%len(ids)], fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return nw, s, rng
}

func settle(t testing.TB, nw *rechord.Network) {
	t.Helper()
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
}

func apply(t testing.TB, nw *rechord.Network, evs ...churn.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := ev.Apply(nw); err != nil {
			t.Fatalf("%s of %s: %v", ev.Kind, ev.ID, err)
		}
	}
	settle(t, nw)
}

// between returns an identifier strictly inside the arc (a, b) of the
// ring, a fraction f of the way from a.
func between(a, b ident.ID, f float64) ident.ID {
	return a + ident.ID(float64(uint64(b-a))*f)
}

func TestRebalanceMatchesFullPass(t *testing.T) {
	t.Run("join-leave-fail", func(t *testing.T) {
		nw, s, rng := filledStore(t, 32, 11, 2000)
		ids := nw.Peers()
		apply(t, nw, churn.Event{Kind: churn.Join, ID: ident.ID(rng.Uint64() | 1), Contact: ids[0]})
		total := checkedRebalance(t, s, "join")
		apply(t, nw, churn.Event{Kind: churn.Leave, ID: ids[5]})
		total += checkedRebalance(t, s, "leave")
		apply(t, nw, churn.Event{Kind: churn.Fail, ID: ids[17]})
		total += checkedRebalance(t, s, "fail")
		if total == 0 {
			t.Error("three events moved no pair: the script exercised nothing")
		}
		if moved := checkedRebalance(t, s, "repeat"); moved != 0 {
			t.Errorf("a Rebalance with nothing changed moved %d pairs", moved)
		}
	})
	t.Run("adjacent-joins", func(t *testing.T) {
		nw, s, _ := filledStore(t, 32, 12, 2000)
		ids := nw.Peers()
		lo, hi := ids[9], ids[10]
		apply(t, nw,
			churn.Event{Kind: churn.Join, ID: between(lo, hi, 1.0/3), Contact: ids[0]},
			churn.Event{Kind: churn.Join, ID: between(lo, hi, 2.0/3), Contact: ids[20]})
		if checkedRebalance(t, s, "two joins into one arc") == 0 {
			t.Error("two joins moved no pair")
		}
	})
	t.Run("join-then-successor-departs", func(t *testing.T) {
		for _, kind := range []churn.Kind{churn.Leave, churn.Fail} {
			nw, s, _ := filledStore(t, 32, 13, 2000)
			ids := nw.Peers()
			j := between(ids[3], ids[4], 0.5)
			apply(t, nw,
				churn.Event{Kind: churn.Join, ID: j, Contact: ids[0]},
				churn.Event{Kind: kind, ID: ids[4]})
			if checkedRebalance(t, s, "join plus "+string(kind)+" of its successor") == 0 {
				t.Error("the events moved no pair")
			}
		}
	})
	t.Run("empty-network", func(t *testing.T) {
		nw := rechord.NewNetwork(rechord.Config{})
		s := NewWithResolver(nw, successorResolver{nw})
		rng := rand.New(rand.NewSource(14))
		for i := 0; i < 8; i++ {
			nw.AddPeer(ident.ID(rng.Uint64() | 1))
		}
		for i := 0; i < 500; i++ {
			if _, _, err := s.Put(nw.Peers()[0], fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
		if n := strays(s); n != 0 {
			t.Fatalf("%d strays logged with no membership recorded", n)
		}
		for i := 0; i < 8; i++ {
			nw.AddPeer(ident.ID(rng.Uint64() | 1))
		}
		if checkedRebalance(t, s, "first call") == 0 {
			t.Error("doubling the membership moved no pair")
		}
		nw.AddPeer(ident.ID(rng.Uint64() | 1))
		checkedRebalance(t, s, "a join after the first call")
	})
	t.Run("mid-repair-puts", func(t *testing.T) {
		nw, _, rng := filledStore(t, 32, 15, 0)
		cache := routing.NewCache(nw)
		cache.Publish()
		s := NewWithResolver(nw, routing.ViewResolver{Cache: cache})
		ids := nw.Peers()
		put := func(tag string, count int) {
			for i := 0; i < count; i++ {
				home := ids[rng.Intn(len(ids))]
				_, _, _ = s.Put(home, fmt.Sprintf("%s-%d", tag, rng.Intn(400)), tag)
			}
		}
		put("pre", 1500)
		if s.Len() == 0 {
			t.Fatal("no Put reached the store")
		}
		logged := 0
		for e, ev := range []churn.Event{
			{Kind: churn.Join, ID: ident.ID(rng.Uint64() | 1), Contact: ids[3]},
			{Kind: churn.Join, ID: ident.ID(rng.Uint64() | 1), Contact: ids[8]},
			{Kind: churn.Leave, ID: ids[12]},
			{Kind: churn.Fail, ID: ids[21]},
		} {
			if err := ev.Apply(nw); err != nil {
				t.Fatal(err)
			}
			cache.Publish()
			for r := 0; !nw.Quiescent(); r++ {
				nw.Step()
				if r%2 == 1 {
					cache.Publish()
					put(fmt.Sprintf("e%d", e), 40)
				}
			}
			cache.Publish()
			logged += strays(s)
			checkedRebalance(t, s, fmt.Sprintf("event %d (%s)", e, ev.Kind))
		}
		if logged == 0 {
			t.Error("no mid-repair Put was logged as a stray: the path went unexercised")
		}

		// One write to a peer that owns the key under neither
		// membership, as a mid-repair table could answer.
		key := KeyOf("third-peer")
		peers := nw.Peers()
		third := peers[(ident.SuccessorIndex(peers, key.ID)+len(peers)/2)%len(peers)]
		s.resolve = thirdPeer{Resolver: s.resolve, key: key.ID, peer: third}
		if got, _, err := s.PutKey(peers[0], key, "forced"); err != nil || got != third {
			t.Fatalf("forced Put landed at %s, %v; want %s", got, err, third)
		}
		if n := strays(s); n != 1 {
			t.Fatalf("%d strays after one third-peer write, want 1", n)
		}
		apply(t, nw, churn.Event{Kind: churn.Join, ID: ident.ID(rng.Uint64() | 1), Contact: ids[0]})
		checkedRebalance(t, s, "third-peer write plus a join")
		if owner := ident.Successor(nw.Peers(), key.ID); contents(s)[owner][key.Name] != "forced" {
			t.Errorf("the third-peer write did not reach its owner %s", owner)
		}
		if n := strays(s); n != 0 {
			t.Errorf("%d strays left after Rebalance", n)
		}
	})
}

// TestRebalanceLeavesUntouchedBucketsAlone pins the incremental cost:
// after one join, every bucket but the joiner's successor's (and the
// joiner's new one) is the very map it was before.
func TestRebalanceLeavesUntouchedBucketsAlone(t *testing.T) {
	nw, s, rng := filledStore(t, 32, 16, 2000)
	ids := nw.Peers()
	identity := func() map[ident.ID]unsafe.Pointer {
		out := map[ident.ID]unsafe.Pointer{}
		for i := range s.shards {
			for peer, b := range s.shards[i].buckets {
				out[peer] = reflect.ValueOf(b).UnsafePointer()
			}
		}
		return out
	}
	before := identity()
	j := ident.ID(rng.Uint64() | 1)
	split := ident.Successor(ids, j)
	apply(t, nw, churn.Event{Kind: churn.Join, ID: j, Contact: ids[0]})
	if checkedRebalance(t, s, "join") == 0 {
		t.Fatal("the join moved no pair")
	}
	for peer, p := range identity() {
		if peer == split || peer == j {
			continue
		}
		if before[peer] != p {
			t.Errorf("bucket of %s, untouched by the join of %s, was rebuilt", peer, j)
		}
	}
}

// membership returns a network holding exactly the given peers and no
// edges: all a store's Rebalance reads of it.
func membership(ids []ident.ID) *rechord.Network {
	nw := rechord.NewNetwork(rechord.Config{})
	for _, id := range ids {
		nw.AddPeer(id)
	}
	return nw
}

// TestRebalanceAllocs bounds what a join costs the store: a join's
// Rebalance and its undo over 16,384 keys allocate a fixed handful of
// objects, however many keys sit in untouched buckets.
func TestRebalanceAllocs(t *testing.T) {
	const n, keys = 512, 16384
	rng := rand.New(rand.NewSource(17))
	ids := make([]ident.ID, n)
	for i := range ids {
		ids[i] = ident.ID(rng.Uint64() | 1)
	}
	without := membership(ids)
	with := membership(append(ids, ident.ID(rng.Uint64()|1)))
	s := NewWithResolver(without, successorResolver{without})
	for i := 0; i < keys; i++ {
		if _, _, err := s.Put(ids[0], fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	allocs := testing.AllocsPerRun(20, func() {
		s.nw = with
		m, err := s.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		moved += m
		s.nw = without
		if _, err := s.Rebalance(); err != nil {
			t.Fatal(err)
		}
	})
	if moved == 0 {
		t.Fatal("the join moved no pair")
	}
	t.Logf("join + undo: %.0f allocs, %d pairs moved per join", allocs, moved/21)
	if allocs > 64 {
		t.Errorf("a join's Rebalance and its undo allocate %.0f objects, want <= 64", allocs)
	}
}

// TestRebalanceRacesClients runs Rebalance while clients Put and Get
// through the published view; under -race it checks the one-lock-at-a-
// time sweep and the membership the Put path reads. The final, quiet
// Rebalance must then leave every pair at its owner.
func TestRebalanceRacesClients(t *testing.T) {
	nw, _, rng := filledStore(t, 32, 18, 0)
	cache := routing.NewCache(nw)
	cache.Publish()
	s := NewWithResolver(nw, routing.ViewResolver{Cache: cache})
	ids := nw.Peers()
	for i := 0; i < 1000; i++ {
		if _, _, err := s.Put(ids[i%len(ids)], fmt.Sprintf("k%d", i), "pre"); err != nil {
			t.Fatal(err)
		}
	}
	events := churn.RandomEvents(nw, 8, rng)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops [4]int
	for w := range ops {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				home := ids[r.Intn(len(ids))]
				key := KeyOf(fmt.Sprintf("k%d", r.Intn(1200)))
				var err error
				if r.Intn(2) == 0 {
					_, _, err = s.PutKey(home, key, fmt.Sprintf("w%d", w))
				} else {
					_, _, err = s.GetKey(home, key)
				}
				if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrUnknownPeer) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				ops[w]++
			}
		}(w)
	}
	rebalanced := 0
	for _, ev := range events {
		if _, err := churn.Apply(context.Background(), nw, ev, 0); err != nil {
			t.Fatal(err)
		}
		cache.Publish()
		m, err := s.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		rebalanced += m
	}
	close(stop)
	wg.Wait()
	checkedRebalance(t, s, "after the clients stopped")
	if rebalanced == 0 {
		t.Error("the events moved no pair")
	}
	t.Logf("%d pairs moved under %v client ops", rebalanced, ops)
}

// BenchmarkStoreRebalance measures the store's share of one settled
// membership event at n=512 over 16,384 keys: the Rebalance after the
// event, with moved/op the pairs it re-homed. Each iteration also
// undoes the event, untimed, so n and the key count hold.
func BenchmarkStoreRebalance(b *testing.B) {
	const n, keys = 512, 16384
	for _, kind := range []churn.Kind{churn.Join, churn.Leave, churn.Fail} {
		b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
			nw, s, rng := filledStore(b, n, 19, keys)
			rebalance := func() int {
				m, err := s.Rebalance()
				if err != nil {
					b.Fatal(err)
				}
				return m
			}
			moved := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ids := nw.Peers()
				victim := ids[rng.Intn(len(ids))]
				fresh := churn.Event{Kind: churn.Join, ID: ident.ID(rng.Uint64() | 1), Contact: ids[0]}
				ev, undo := churn.Event{Kind: kind, ID: victim}, fresh
				if kind == churn.Join {
					ev, undo = fresh, churn.Event{Kind: churn.Leave, ID: fresh.ID}
				}
				apply(b, nw, ev)
				b.StartTimer()
				moved += rebalance()
				b.StopTimer()
				apply(b, nw, undo)
				rebalance()
				b.StartTimer()
			}
			b.ReportMetric(float64(moved)/float64(b.N), "moved/op")
		})
	}
}
