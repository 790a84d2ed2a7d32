package ref

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ident"
)

func TestRefID(t *testing.T) {
	u := ident.FromFloat(0.25)
	if got := Real(u).ID(); got != u {
		t.Errorf("Real(u).ID() = %v, want %v", got, u)
	}
	v := Virtual(u, 1)
	if got := v.ID(); got != ident.FromFloat(0.75) {
		t.Errorf("Virtual(u,1).ID() = %v, want 0.75", got)
	}
	if v.IsReal() {
		t.Error("virtual node reports IsReal")
	}
	if !Real(u).IsReal() {
		t.Error("real node reports !IsReal")
	}
}

// randomOwners returns the owners the layout tests range over: the
// extremes of the identifier space and random ones.
func randomOwners(rng *rand.Rand, n int) []ident.ID {
	owners := []ident.ID{0, 1, ^ident.ID(0), ident.ID(1) << 63}
	for range n {
		owners = append(owners, ident.ID(rng.Uint64()))
	}
	return owners
}

// TestVirtualLayout: every level 0..64 of every owner round-trips
// through the stored identifier — Level recovers it, ID is the sibling
// arithmetic, IsReal holds exactly at level 0.
func TestVirtualLayout(t *testing.T) {
	for _, u := range randomOwners(rand.New(rand.NewSource(5)), 200) {
		for l := 0; l <= MaxWireLevel; l++ {
			r := Virtual(u, l)
			if r.Level() != l || r.ID() != ident.Sibling(u, l) || r.Owner() != u || r.IsReal() != (l == 0) {
				t.Fatalf("Virtual(%v, %d) = %v: level %d, id %v, owner %v, real %v; want level %d, id %v",
					u, l, r, r.Level(), r.ID(), r.Owner(), r.IsReal(), l, ident.Sibling(u, l))
			}
		}
		if Real(u) != Virtual(u, 0) {
			t.Fatalf("Real(%v) != Virtual(%v, 0)", u, u)
		}
	}
	if got := unsafe.Sizeof(Ref{}); got != 16 {
		t.Errorf("Ref is %d bytes, want 16", got)
	}
}

// ownerLevelCompare is the order Ref had when it stored (owner, level)
// and derived the identifier: by identifier, then owner, then level.
func ownerLevelCompare(ao ident.ID, al int, bo ident.ID, bl int) int {
	return cmp.Or(cmp.Compare(ident.Sibling(ao, al), ident.Sibling(bo, bl)), cmp.Compare(ao, bo), cmp.Compare(al, bl))
}

// TestOrderMatchesOwnerLevelOracle: Less, Compare and a Set's order
// agree with the (identifier, owner, level) comparator over references
// of which many share identifiers or owners.
func TestOrderMatchesOwnerLevelOracle(t *testing.T) {
	type ol struct {
		owner ident.ID
		level int
	}
	rng := rand.New(rand.NewSource(6))
	for range 200 {
		var pool []ol
		for _, b := range randomOwners(rng, 3) {
			for _, l := range []int{0, 1, 2, 3, 63, 64, rng.Intn(65)} {
				pool = append(pool, ol{b, l})
				// the real node sitting on b's level-l sibling
				pool = append(pool, ol{ident.Sibling(b, l), 0})
			}
		}
		var s Set
		for _, a := range pool {
			ra := Virtual(a.owner, a.level)
			for _, b := range pool {
				rb := Virtual(b.owner, b.level)
				want := ownerLevelCompare(a.owner, a.level, b.owner, b.level)
				if got := ra.Compare(rb); got != want {
					t.Fatalf("%v.Compare(%v) = %d, want %d", ra, rb, got, want)
				}
				if got := ra.Less(rb); got != (want < 0) {
					t.Fatalf("%v.Less(%v) = %v, want %v", ra, rb, got, want < 0)
				}
			}
			s.Add(ra)
		}
		slices.SortFunc(pool, func(a, b ol) int { return ownerLevelCompare(a.owner, a.level, b.owner, b.level) })
		pool = slices.Compact(pool)
		if s.Len() != len(pool) {
			t.Fatalf("set holds %d refs, want %d", s.Len(), len(pool))
		}
		for i, r := range s.Slice() {
			if r != Virtual(pool[i].owner, pool[i].level) {
				t.Fatalf("set element %d = %v, want %v@%d", i, r, pool[i].owner, pool[i].level)
			}
		}
	}
}

func TestLessTotalOrder(t *testing.T) {
	u1, u2 := ident.FromFloat(0.1), ident.FromFloat(0.2)
	a, b := Real(u1), Real(u2)
	if !a.Less(b) || b.Less(a) {
		t.Error("order by identifier broken")
	}
	// Identifier tie: virtual node of one owner colliding with a real
	// node of another must still order deterministically.
	c := Virtual(u1, 0) // same as Real(u1)
	if a.Less(c) || c.Less(a) {
		t.Error("identical refs must not be Less in either direction")
	}
	// Same ID via different construction: u1 + 1/2 vs. a real at 0.6.
	v := Virtual(u1, 1) // id 0.6
	r := Real(ident.FromFloat(0.1) + ident.ID(uint64(1)<<63))
	if v.ID() != r.ID() {
		t.Fatal("test setup: ids must collide")
	}
	if v.Less(r) == r.Less(v) {
		t.Error("tie-break must order colliding ids strictly")
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	f := func(o1, o2 uint64, l1, l2 uint8) bool {
		a := Virtual(ident.ID(o1), int(l1%63))
		b := Virtual(ident.ID(o2), int(l2%63))
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a) // exactly one direction
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAddRemoveContains(t *testing.T) {
	var s Set
	a := Real(ident.FromFloat(0.3))
	b := Virtual(ident.FromFloat(0.3), 2)
	if !s.Add(a) {
		t.Error("first Add returned false")
	}
	if s.Add(a) {
		t.Error("duplicate Add returned true")
	}
	s.Add(b)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Error("Contains missing inserted element")
	}
	if !s.Remove(a) {
		t.Error("Remove returned false for present element")
	}
	if s.Remove(a) {
		t.Error("Remove returned true for absent element")
	}
	if s.Contains(a) {
		t.Error("removed element still present")
	}
}

func TestSetOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set
	for i := 0; i < 200; i++ {
		s.Add(Virtual(ident.ID(rng.Uint64()), rng.Intn(5)))
	}
	rs := s.Slice()
	if !sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i].Less(rs[j]) }) {
		t.Error("Slice() not sorted by Less")
	}
}

func TestSetMinMax(t *testing.T) {
	var s Set
	if _, ok := s.Min(); ok {
		t.Error("Min on empty set reported ok")
	}
	if _, ok := s.Max(); ok {
		t.Error("Max on empty set reported ok")
	}
	ids := []float64{0.4, 0.1, 0.9, 0.5}
	for _, x := range ids {
		s.Add(Real(ident.FromFloat(x)))
	}
	mn, _ := s.Min()
	mx, _ := s.Max()
	if mn.ID() != ident.FromFloat(0.1) {
		t.Errorf("Min = %v, want 0.1", mn)
	}
	if mx.ID() != ident.FromFloat(0.9) {
		t.Errorf("Max = %v, want 0.9", mx)
	}
}

func TestMaxBelowMinAbove(t *testing.T) {
	var s Set
	for _, x := range []float64{0.2, 0.4, 0.6, 0.8} {
		s.Add(Real(ident.FromFloat(x)))
	}
	if r, ok := s.MaxBelow(ident.FromFloat(0.5)); !ok || r.ID() != ident.FromFloat(0.4) {
		t.Errorf("MaxBelow(0.5) = %v,%v, want 0.4", r, ok)
	}
	if r, ok := s.MaxBelow(ident.FromFloat(0.4)); !ok || r.ID() != ident.FromFloat(0.2) {
		t.Errorf("MaxBelow(0.4) = %v,%v, want 0.2 (strict)", r, ok)
	}
	if _, ok := s.MaxBelow(ident.FromFloat(0.1)); ok {
		t.Error("MaxBelow below all elements reported ok")
	}
	if r, ok := s.MinAbove(ident.FromFloat(0.5)); !ok || r.ID() != ident.FromFloat(0.6) {
		t.Errorf("MinAbove(0.5) = %v,%v, want 0.6", r, ok)
	}
	if r, ok := s.MinAbove(ident.FromFloat(0.6)); !ok || r.ID() != ident.FromFloat(0.8) {
		t.Errorf("MinAbove(0.6) = %v,%v, want 0.8 (strict)", r, ok)
	}
	if _, ok := s.MinAbove(ident.FromFloat(0.9)); ok {
		t.Error("MinAbove above all elements reported ok")
	}
}

// collidingRefs returns distinct references of which many share an
// identifier: for each owner b, the virtual node V(b,l) and the real
// node R(b+2^(64-l)) sit at the same position.
func collidingRefs(rng *rand.Rand) []Ref {
	var pool []Ref
	for range 3 {
		b := ident.ID(rng.Uint64())
		for l := 0; l <= 3; l++ {
			pool = append(pool, Virtual(b, l))
			if l > 0 {
				pool = append(pool, Real(ident.Sibling(b, l)))
			}
		}
	}
	return pool
}

// TestSearchesMatchLinearScan compares MaxBelow, MinAbove and Contains,
// in their method and slice forms, with a linear scan over random sets
// in which distinct references share identifiers.
func TestSearchesMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for range 300 {
		pool := collidingRefs(rng)
		var s Set
		for _, r := range pool {
			if rng.Intn(2) == 0 {
				s.Add(r)
			}
		}
		rs := s.Slice()
		for i := 1; i < len(rs); i++ {
			if !rs[i-1].Less(rs[i]) {
				t.Fatalf("set not strictly sorted: %v", rs)
			}
		}
		for _, r := range pool {
			if got, want := s.Contains(r), slices.Contains(rs, r); got != want {
				t.Fatalf("Contains(%v) = %v, want %v in %v", r, got, want, rs)
			}
			for _, id := range []ident.ID{r.ID() - 1, r.ID(), r.ID() + 1, ident.ID(rng.Uint64())} {
				var below, above Ref
				var bok, aok bool
				for _, x := range rs {
					if x.ID() < id {
						below, bok = x, true // the last one wins: the greatest
					}
					if x.ID() > id && !aok {
						above, aok = x, true
					}
				}
				if x, ok := s.MaxBelow(id); x != below || ok != bok {
					t.Fatalf("MaxBelow(%v) = %v,%v, want %v,%v in %v", id, x, ok, below, bok, rs)
				}
				if x, ok := MaxBelow(rs, id); x != below || ok != bok {
					t.Fatalf("slice MaxBelow(%v) = %v,%v, want %v,%v", id, x, ok, below, bok)
				}
				if x, ok := s.MinAbove(id); x != above || ok != aok {
					t.Fatalf("MinAbove(%v) = %v,%v, want %v,%v in %v", id, x, ok, above, aok, rs)
				}
				if x, ok := MinAbove(rs, id); x != above || ok != aok {
					t.Fatalf("slice MinAbove(%v) = %v,%v, want %v,%v", id, x, ok, above, aok)
				}
			}
		}
	}
}

func TestSetCloneIndependent(t *testing.T) {
	var s Set
	s.Add(Real(ident.FromFloat(0.5)))
	c := s.Clone()
	c.Add(Real(ident.FromFloat(0.7)))
	if s.Len() != 1 {
		t.Error("Clone shares storage with original")
	}
	if !s.Equal(s.Clone()) {
		t.Error("set not Equal to its own clone")
	}
	if s.Equal(c) {
		t.Error("differing sets compare Equal")
	}
}

func TestSetAddAll(t *testing.T) {
	a := NewSet(Real(ident.FromFloat(0.1)), Real(ident.FromFloat(0.2)))
	b := NewSet(Real(ident.FromFloat(0.2)), Real(ident.FromFloat(0.3)))
	a.AddAll(b)
	if a.Len() != 3 {
		t.Errorf("AddAll union size = %d, want 3", a.Len())
	}
}

func TestSetRemoveIf(t *testing.T) {
	var s Set
	for _, x := range []float64{0.1, 0.2, 0.3, 0.4} {
		s.Add(Real(ident.FromFloat(x)))
	}
	n := s.RemoveIf(func(r Ref) bool { return r.ID() > ident.FromFloat(0.25) })
	if n != 2 || s.Len() != 2 {
		t.Errorf("RemoveIf removed %d leaving %d, want 2 and 2", n, s.Len())
	}
}

func TestSetClear(t *testing.T) {
	s := NewSet(Real(ident.FromFloat(0.1)))
	s.Clear()
	if !s.Empty() {
		t.Error("Clear left elements behind")
	}
}

func TestSetInvariantsQuick(t *testing.T) {
	// Random operation sequences keep the set sorted, deduplicated and
	// consistent with a reference map implementation.
	f := func(ops []uint64) bool {
		var s Set
		refm := map[Ref]bool{}
		for _, op := range ops {
			r := Virtual(ident.ID(op>>2), int(op%4))
			if op%2 == 0 {
				s.Add(r)
				refm[r] = true
			} else {
				s.Remove(r)
				delete(refm, r)
			}
		}
		if s.Len() != len(refm) {
			return false
		}
		prev := Ref{}
		for i, r := range s.Slice() {
			if !refm[r] {
				return false
			}
			if i > 0 && !prev.Less(r) {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	refs := make([]Ref, 64)
	for i := range refs {
		refs[i] = Virtual(ident.ID(rng.Uint64()), rng.Intn(6))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Set
		for _, r := range refs {
			s.Add(r)
		}
	}
}

func BenchmarkSetContains(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var s Set
	refs := make([]Ref, 64)
	for i := range refs {
		refs[i] = Virtual(ident.ID(rng.Uint64()), rng.Intn(6))
		s.Add(refs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(refs[i%len(refs)])
	}
}
