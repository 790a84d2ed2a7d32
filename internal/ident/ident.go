// Package ident implements the identifier space of the Re-Chord network.
//
// The paper assigns every peer an immutable identifier in the real
// interval [0,1) and derives the identifiers of its virtual nodes as
// u_i = u + 1/2^i (mod 1). We represent an identifier as a 64-bit
// fixed-point fraction: the ID value x stands for the real number
// x / 2^64. This makes the sibling arithmetic exact — adding 1/2^i is
// adding 1<<(64-i) with natural uint64 wraparound — and gives a total
// order identical to the order of the underlying reals.
package ident

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// ID is an identifier in [0,1), stored as a fixed-point fraction with
// denominator 2^64. The zero value is the identifier 0.
type ID uint64

// MaxLevel is the largest virtual-node level the system uses. Level i
// places a virtual node at clockwise distance 1/2^i from its owner;
// beyond level 62 the distances collapse toward the fixed-point
// granularity, so m (Section 2.2) is capped here.
const MaxLevel = 62

// FromFloat converts a real number in [0,1) to an ID, truncating to the
// fixed-point grid. Values outside [0,1) are reduced modulo 1.
func FromFloat(x float64) ID {
	x = x - math.Floor(x)
	// 2^64 is not representable in float64 exactly as a product bound,
	// so scale via 2^32 twice to keep precision for small x.
	f := x * (1 << 32) * (1 << 32)
	// For x just below 1 the first multiplication can round UP (e.g.
	// math.Nextafter(1, 0)*2^32 ties to exactly 2^32), making the
	// product exactly 2^64 — whose uint64 conversion is
	// implementation-defined. Clamp to the top of the grid instead.
	if f >= 1<<64 {
		return ^ID(0)
	}
	return ID(f)
}

// Float returns the real number the ID stands for, in [0,1).
func (a ID) Float() float64 {
	return float64(a) / (1 << 32) / (1 << 32)
}

// Hash derives an ID from an arbitrary peer address using SHA-1, the
// hash function Chord itself uses for consistent hashing.
func Hash(addr string) ID {
	sum := sha1.Sum([]byte(addr))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// Sibling returns the identifier of the level-i virtual node of a:
// a + 1/2^i (mod 1). Sibling(a, 0) is a itself, and so is every level
// outside 1..64: the shift count 64-uint(level) is then at least 64
// (level <= 0, or level >= 65 wrapping the unsigned subtraction), and a
// Go shift by at least the operand's width yields 0.
func Sibling(a ID, level int) ID {
	return a + ID(uint64(1)<<(64-uint(level)))
}

// Dist returns the clockwise (increasing identifier, mod 1) distance
// from a to b as a fraction with denominator 2^64.
func Dist(a, b ID) uint64 {
	return uint64(b - a)
}

// CCWDist returns the counter-clockwise distance from a to b.
func CCWDist(a, b ID) uint64 {
	return uint64(a - b)
}

// Between reports whether x lies in the open ring interval (a, b),
// walking clockwise from a to b. When a == b the interval is the whole
// ring minus {a}, matching the paper's [u,v] interval definition.
func Between(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// InRightHalfOpen reports whether x lies in the ring interval (a, b]
// walking clockwise from a.
func InRightHalfOpen(x, a, b ID) bool {
	return Between(x, a, b) || x == b && x != a
}

// LevelFor returns the level m of Section 2.2: the first level whose
// clockwise interval (u, u+1/2^m] contains none of the given real
// identifiers, so that u_m is the virtual node with the smallest
// distance to u that still lies strictly before u's closest known real
// neighbor (the stable-state requirement of Section 3.1.6, and the
// finger layout of Figure 1). The result is in [1, MaxLevel]. reals may
// contain u itself; it is ignored. If no other real identifier is known
// the result is MaxLevel.
func LevelFor(u ID, reals []ID) int {
	// The smallest clockwise distance from u to a known real node
	// determines m: we need 1/2^m strictly below that distance, i.e.
	// 2^(64-m) < d.
	var best uint64
	found := false
	for _, r := range reals {
		if r == u {
			continue
		}
		// The found flag, not a sentinel best, admits the farthest
		// possible neighbor: u-1 at distance 2^64-1.
		if d := Dist(u, r); !found || d < best {
			best = d
			found = true
		}
	}
	if !found {
		return MaxLevel
	}
	return LevelForDist(best)
}

// LevelForDist returns the minimal level m in [1, MaxLevel] such that
// 2^(64-m) < d, i.e. the virtual node u_m falls strictly before the
// closest known real node at clockwise distance d while u_{m-1} would
// land on or beyond it.
func LevelForDist(d uint64) int {
	if d == 0 {
		return MaxLevel
	}
	// Find the largest m with 1<<(64-m) < d.
	m := 1
	for m < MaxLevel && (uint64(1)<<(64-uint(m))) >= d {
		m++
	}
	if (uint64(1) << (64 - uint(m))) >= d {
		return MaxLevel
	}
	return m
}

// String renders the ID as a short fraction, e.g. "0.3457".
func (a ID) String() string {
	return fmt.Sprintf("%.6f", a.Float())
}

// Sort sorts identifiers in increasing (linear) order in place.
func Sort(ids []ID) {
	slices.Sort(ids)
}

// SuccessorIndex returns the index into the sorted slice ids of the
// clockwise successor of x: the smallest identifier >= x, wrapping to
// index 0 when x exceeds every element. ids must be sorted and
// non-empty.
func SuccessorIndex(ids []ID, x ID) int {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= x })
	if i == len(ids) {
		return 0
	}
	return i
}

// Successor returns the clockwise successor of x among ids (the node
// responsible for key x under consistent hashing). ids must be sorted
// and non-empty.
func Successor(ids []ID, x ID) ID {
	return ids[SuccessorIndex(ids, x)]
}

// AppendBytes appends the identifier's canonical 8-byte big-endian
// wire form to dst. This is the literal representation a codec ships
// on an identifier's first mention; FromBytes is its inverse.
func AppendBytes(dst []byte, a ID) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(a))
}

// FromBytes decodes the 8-byte big-endian identifier at the start of
// b, reporting false when b is too short.
func FromBytes(b []byte) (ID, bool) {
	if len(b) < 8 {
		return 0, false
	}
	return ID(binary.BigEndian.Uint64(b)), true
}

// Hex renders the identifier as exactly 16 lowercase hex digits — the
// fixed-width textual form wire scripts and tooling use, accepted by
// ParseHex. (String is the human-facing decimal fraction instead.)
func (a ID) Hex() string {
	return fmt.Sprintf("%016x", uint64(a))
}

// ParseHex decodes the 16-digit hex form produced by Hex.
func ParseHex(s string) (ID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("ident: hex id must be 16 digits, got %q", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("ident: bad hex id %q: %v", s, err)
	}
	return ID(v), nil
}
