package ident

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.25, 0.5, 0.75, 0.999999, 1.0 / 3.0, 0.125}
	for _, x := range cases {
		got := FromFloat(x).Float()
		if math.Abs(got-x) > 1e-12 {
			t.Errorf("FromFloat(%v).Float() = %v, want within 1e-12", x, got)
		}
	}
}

// TestFromFloatTopOfInterval: inputs whose scaled product lands on
// exactly 2^64 — the mod-1 reduction of a tiny negative x rounds to
// exactly 1.0 — would hit an implementation-defined float-to-uint64
// conversion; they must clamp to the top of the fixed-point grid. The
// largest float64 below 1 must stay below the clamp and monotone.
func TestFromFloatTopOfInterval(t *testing.T) {
	// -1e-20 reduces to 1 - 1e-20, which rounds to exactly 1.0: the
	// product is exactly 2^64 and must clamp, not wrap to 0 (or
	// saturate only on some architectures).
	if got := FromFloat(-1e-20); got != ^ID(0) {
		t.Errorf("FromFloat(-1e-20) = %v (%#x), want clamp to ^ID(0)", got, uint64(got))
	}
	top := math.Nextafter(1, 0) // 1 - 2^-53: representable product 2^64 - 2^11
	if got, want := FromFloat(top), ID(^uint64(0)-(1<<11)+1); got != want {
		t.Errorf("FromFloat(Nextafter(1,0)) = %#x, want %#x", uint64(got), uint64(want))
	}
	// Monotonicity near the top: smaller inputs never map above.
	if prev := FromFloat(math.Nextafter(top, 0)); prev > FromFloat(top) {
		t.Errorf("FromFloat not monotone at the top: %#x > %#x", uint64(prev), uint64(FromFloat(top)))
	}
	if FromFloat(top) > FromFloat(-1e-20) {
		t.Error("clamped top is not the maximum of the grid")
	}
}

func TestFromFloatReducesModOne(t *testing.T) {
	if FromFloat(1.25) != FromFloat(0.25) {
		t.Errorf("FromFloat(1.25) = %v, want FromFloat(0.25) = %v", FromFloat(1.25), FromFloat(0.25))
	}
	if FromFloat(-0.75) != FromFloat(0.25) {
		t.Errorf("FromFloat(-0.75) = %v, want FromFloat(0.25)", FromFloat(-0.75))
	}
}

func TestSiblingDistances(t *testing.T) {
	u := FromFloat(0.3)
	for i := 1; i <= MaxLevel; i++ {
		d := Dist(u, Sibling(u, i))
		want := uint64(1) << (64 - uint(i))
		if d != want {
			t.Fatalf("Dist(u, Sibling(u,%d)) = %d, want %d", i, d, want)
		}
	}
}

func TestSiblingLevelZero(t *testing.T) {
	u := ID(42)
	if Sibling(u, 0) != u {
		t.Errorf("Sibling(u,0) = %v, want u", Sibling(u, 0))
	}
	if Sibling(u, -3) != u {
		t.Errorf("Sibling(u,-3) = %v, want u", Sibling(u, -3))
	}
	if Sibling(u, 65) != u {
		t.Errorf("Sibling(u,65) = %v, want u (out of range level)", Sibling(u, 65))
	}
}

// TestSiblingMatchesBranchyDefinition holds the branch-free Sibling to
// the two-branch definition it replaced, at the levels on and beyond both
// edges of 1..64, for random identifiers.
func TestSiblingMatchesBranchyDefinition(t *testing.T) {
	branchy := func(a ID, level int) ID {
		if level <= 0 || level > 64 {
			return a
		}
		return a + ID(uint64(1)<<(64-uint(level)))
	}
	rng := rand.New(rand.NewSource(11))
	for _, level := range []int{-1, 0, 1, 2, 63, 64, 65, 200} {
		for range 1000 {
			a := ID(rng.Uint64())
			if got, want := Sibling(a, level), branchy(a, level); got != want {
				t.Fatalf("Sibling(%#x, %d) = %#x, want %#x", uint64(a), level, uint64(got), uint64(want))
			}
		}
	}
}

func TestSiblingWraparound(t *testing.T) {
	u := FromFloat(0.75)
	s := Sibling(u, 1) // 0.75 + 0.5 = 0.25 mod 1
	if got, want := s.Float(), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("Sibling(0.75, 1).Float() = %v, want %v", got, want)
	}
}

func TestDistWraparound(t *testing.T) {
	a, b := FromFloat(0.9), FromFloat(0.1)
	got := ID(Dist(a, b)).Float() // distance as a fraction of the ring
	if math.Abs(got-0.2) > 1e-9 {
		t.Errorf("Dist(0.9,0.1) = %v of ring, want 0.2", got)
	}
	if Dist(a, a) != 0 {
		t.Errorf("Dist(a,a) = %d, want 0", Dist(a, a))
	}
}

func TestDistPlusCCWDist(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := ID(a), ID(b)
		if x == y {
			return Dist(x, y) == 0 && CCWDist(x, y) == 0
		}
		// Clockwise plus counter-clockwise distance covers the ring.
		return Dist(x, y)+CCWDist(x, y) == 0 // uint64 wraparound: 2^64 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetween(t *testing.T) {
	tests := []struct {
		x, a, b float64
		want    bool
	}{
		{0.5, 0.3, 0.8, true},
		{0.3, 0.3, 0.8, false},
		{0.8, 0.3, 0.8, false},
		{0.9, 0.3, 0.8, false},
		{0.0, 0.8, 0.3, true},  // paper's example: 0 in [0.8, 0.3]
		{0.2, 0.8, 0.3, true},  // paper's example: 0.2 in [0.8, 0.3]
		{0.2, 0.3, 0.8, false}, // paper's example: 0.2 not in [0.3, 0.8]
		{0.9, 0.8, 0.3, true},
		{0.5, 0.8, 0.3, false},
	}
	for _, tc := range tests {
		got := Between(FromFloat(tc.x), FromFloat(tc.a), FromFloat(tc.b))
		if got != tc.want {
			t.Errorf("Between(%v, %v, %v) = %v, want %v", tc.x, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestBetweenDegenerate(t *testing.T) {
	a := FromFloat(0.4)
	if Between(a, a, a) {
		t.Error("Between(a,a,a) = true, want false")
	}
	if !Between(FromFloat(0.7), a, a) {
		t.Error("Between(x,a,a) = false for x != a, want true (whole ring minus a)")
	}
}

func TestBetweenProperty(t *testing.T) {
	// x in (a,b) clockwise iff Dist(a,x) < Dist(a,b), excluding endpoints.
	f := func(x, a, b uint64) bool {
		xi, ai, bi := ID(x), ID(a), ID(b)
		if ai == bi || xi == ai || xi == bi {
			return true // covered by other tests
		}
		want := Dist(ai, xi) < Dist(ai, bi)
		return Between(xi, ai, bi) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInRightHalfOpen(t *testing.T) {
	a, b := FromFloat(0.3), FromFloat(0.8)
	if !InRightHalfOpen(b, a, b) {
		t.Error("b must be in (a, b]")
	}
	if InRightHalfOpen(a, a, b) {
		t.Error("a must not be in (a, b]")
	}
	if !InRightHalfOpen(FromFloat(0.5), a, b) {
		t.Error("0.5 must be in (0.3, 0.8]")
	}
}

func TestLevelForDist(t *testing.T) {
	// LevelForDist(d) is the minimal m with 1/2^m strictly below d, so
	// that u_m lies strictly between u and its closest real neighbor
	// (the stable-state requirement of Section 3.1.6) and m grows like
	// log2(1/d), matching Lemma 3.1 and Figure 1.
	for _, tc := range []struct {
		d    uint64
		want int
	}{
		{uint64(1)<<63 + 1, 1}, // d just over 1/2: u_1 at distance 1/2 fits
		{math.MaxUint64, 1},
		{uint64(1) << 63, 2}, // d exactly 1/2: real node AT u+1/2 -> level 1 not free, level 2 free
		{uint64(1) << 62, 3}, // d = 1/4: levels 1,2 not free (1/4 <= 1/4), level 3 free
		{3, 62},              // tiny distance: capped at MaxLevel
		{1, 62},
		{0, 62},
	} {
		if got := LevelForDist(tc.d); got != tc.want {
			t.Errorf("LevelForDist(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestLevelFor(t *testing.T) {
	u := FromFloat(0.1)
	reals := []ID{FromFloat(0.35), FromFloat(0.9), u}
	// Closest real clockwise from 0.1 is 0.35, distance 0.25.
	// Levels 1,2 have 1/2,1/4 >= 0.25; level 3 has 1/8 < 0.25.
	if got := LevelFor(u, reals); got != 3 {
		t.Errorf("LevelFor = %d, want 3", got)
	}
}

func TestLevelForNoReals(t *testing.T) {
	u := FromFloat(0.1)
	if got := LevelFor(u, nil); got != MaxLevel {
		t.Errorf("LevelFor with no reals = %d, want MaxLevel", got)
	}
	if got := LevelFor(u, []ID{u}); got != MaxLevel {
		t.Errorf("LevelFor with only self = %d, want MaxLevel", got)
	}
}

func TestLevelForFarthestNeighbor(t *testing.T) {
	// u-1 lies at clockwise distance 2^64-1, the largest there is: it
	// still counts as u's closest real node, as LevelForDist says.
	u := FromFloat(0.3)
	if got, want := LevelFor(u, []ID{u - 1}), LevelForDist(math.MaxUint64); got != want || got != 1 {
		t.Errorf("LevelFor(u, {u-1}) = %d, want %d (LevelForDist) = 1", got, want)
	}
}

func TestLevelForWraparound(t *testing.T) {
	u := FromFloat(0.9)
	reals := []ID{FromFloat(0.15)} // clockwise distance 0.25 across the wrap
	if got := LevelFor(u, reals); got != 3 {
		t.Errorf("LevelFor across wrap = %d, want 3", got)
	}
}

func TestLevelForPicksClosest(t *testing.T) {
	u := FromFloat(0)
	reals := []ID{FromFloat(0.6), FromFloat(0.26), FromFloat(0.7)}
	// closest is 0.26 -> levels 1 (0.5) and 2 (0.25 < 0.26!) ... 0.25 < 0.26
	// so interval (u, u+1/4] contains no real node -> m = 2.
	if got := LevelFor(u, reals); got != 2 {
		t.Errorf("LevelFor = %d, want 2", got)
	}
}

func TestLevelForDistMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == 0 || b == 0 {
			return true
		}
		la, lb := LevelForDist(a), LevelForDist(b)
		if a <= b {
			return la >= lb // closer real node -> more virtual levels
		}
		return la <= lb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelForDistSiblingFits(t *testing.T) {
	// For every distance d, the virtual node at level LevelForDist(d)
	// sits strictly closer to u than d (it fits before the real node).
	f := func(d uint64) bool {
		if d == 0 {
			return true
		}
		m := LevelForDist(d)
		if m == MaxLevel {
			return true // capped; the cap is documented
		}
		return uint64(1)<<(64-uint(m)) < d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministicAndSpread(t *testing.T) {
	a := Hash("peer-1")
	if a != Hash("peer-1") {
		t.Error("Hash not deterministic")
	}
	seen := map[ID]bool{}
	for i := 0; i < 1000; i++ {
		h := Hash(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i)))
		seen[h] = true
	}
	if len(seen) < 990 {
		t.Errorf("Hash spread too low: %d distinct of 1000", len(seen))
	}
}

func TestSortAndSuccessor(t *testing.T) {
	ids := []ID{FromFloat(0.7), FromFloat(0.1), FromFloat(0.4)}
	Sort(ids)
	if ids[0] != FromFloat(0.1) || ids[2] != FromFloat(0.7) {
		t.Fatalf("Sort failed: %v", ids)
	}
	if got := Successor(ids, FromFloat(0.2)); got != FromFloat(0.4) {
		t.Errorf("Successor(0.2) = %v, want 0.4", got)
	}
	if got := Successor(ids, FromFloat(0.4)); got != FromFloat(0.4) {
		t.Errorf("Successor(0.4) = %v, want 0.4 (inclusive)", got)
	}
	if got := Successor(ids, FromFloat(0.9)); got != FromFloat(0.1) {
		t.Errorf("Successor(0.9) = %v, want wraparound to 0.1", got)
	}
}

func TestSuccessorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ids := make([]ID, n)
		for i := range ids {
			ids[i] = ID(rng.Uint64())
		}
		Sort(ids)
		x := ID(rng.Uint64())
		s := Successor(ids, x)
		// No identifier lies strictly between x and s clockwise.
		for _, id := range ids {
			if id != s && Between(id, x, s) && x != s {
				t.Fatalf("Successor(%v) = %v but %v is closer clockwise", x, s, id)
			}
		}
	}
}

func TestStringFormat(t *testing.T) {
	if got := FromFloat(0.5).String(); got != "0.500000" {
		t.Errorf("String() = %q, want %q", got, "0.500000")
	}
}
