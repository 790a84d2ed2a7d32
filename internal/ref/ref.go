// Package ref defines references to Re-Chord nodes (real and virtual)
// and the ordered sets used to represent the neighborhoods N_u, N_r and
// N_c of Section 2.2.
//
// A node in the Re-Chord graph is either a real node (a peer) or one of
// its simulated virtual nodes u_i = u + 1/2^i (mod 1). An edge endpoint
// therefore needs more than a bare identifier: two distinct virtual
// nodes of different owners can in principle share an identifier. A Ref
// is two words, the node's own identifier and its owner's, so every
// order query reads a field instead of redoing the sibling arithmetic.
// The virtual level is derived from the pair: the distance from owner
// to identifier is 1/2^level, a single set bit, so Level is 64 minus
// its trailing zeros (0 when the two coincide). Levels 0..64 are all
// representable, and for a fixed owner distinct levels give distinct
// identifiers, so equality of the pair is equality of (owner, level)
// and ordering by (identifier, owner) is ordering by identifier with
// (owner, level) tie-breaking: every min/max/sort operation in the
// protocol rules is total and deterministic.
package ref

import (
	"cmp"
	"fmt"
	"math/bits"

	"repro/internal/ident"
)

// Ref identifies a node in the Re-Chord graph. Build one with Real or
// Virtual; the zero value is the real node with identifier 0.
type Ref struct {
	// id is the node's position in the identifier space:
	// ident.Sibling(owner, level), computed once at construction.
	id ident.ID
	// owner is the identifier of the real node (peer) this node
	// belongs to. For a real node, it is the node's own identifier.
	owner ident.ID
}

// Real constructs a reference to the real node with identifier u.
func Real(u ident.ID) Ref { return Ref{id: u, owner: u} }

// Virtual constructs a reference to the level-i virtual node of u,
// u_i = u + 1/2^i; level 0 is the real node itself. Levels outside
// 0..64 have no virtual node and yield the real node, as ident.Sibling
// does.
func Virtual(u ident.ID, level int) Ref { return Ref{id: ident.Sibling(u, level), owner: u} }

// ID returns the node's position in the identifier space.
func (r Ref) ID() ident.ID { return r.id }

// Owner returns the identifier of the real node (peer) the node belongs
// to: for a real node, its own identifier.
func (r Ref) Owner() ident.ID { return r.owner }

// Level returns the virtual-node level i in u_i = u + 1/2^i: 64 minus
// the trailing zeros of the owner-to-node distance 2^(64-i), and 0 for
// the real node itself.
func (r Ref) Level() int {
	if d := uint64(r.id - r.owner); d != 0 {
		return 64 - bits.TrailingZeros64(d)
	}
	return 0
}

// IsReal reports whether the reference denotes a real node (a peer).
func (r Ref) IsReal() bool { return r.id == r.owner }

// Less imposes the total order used by all protocol rules: by
// identifier first (the linear order on [0,1) the linearization rules
// sort by), breaking identifier ties by owner, which fixes the level,
// so distinct nodes never compare equal.
func (r Ref) Less(o Ref) bool {
	return r.id < o.id || r.id == o.id && r.owner < o.owner
}

// Compare is the three-way form of Less, the comparison slices.SortFunc
// takes.
func (r Ref) Compare(o Ref) int {
	return cmp.Or(cmp.Compare(r.id, o.id), cmp.Compare(r.owner, o.owner))
}

// String renders the reference for logs and test failures.
func (r Ref) String() string {
	if r.IsReal() {
		return fmt.Sprintf("R(%s)", r.owner)
	}
	return fmt.Sprintf("V(%s@%d=%s)", r.owner, r.Level(), r.id)
}

// Set is an ordered set of Refs, sorted by Ref.Less. The zero value is
// an empty set ready to use. Sets are small (neighborhoods hold a
// handful of nodes), so a sorted slice beats a map on every operation
// the protocol performs, and iteration order is deterministic for free.
type Set struct {
	rs []Ref
}

// NewSet returns a set containing the given refs.
func NewSet(rs ...Ref) Set {
	var s Set
	for _, r := range rs {
		s.Add(r)
	}
	return s
}

// Len returns the number of elements.
func (s Set) Len() int { return len(s.rs) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.rs) == 0 }

// search returns the index of the first element not Less than r: a
// closure-free binary search.
func (s Set) search(r Ref) int {
	lo, hi := 0, len(s.rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := s.rs[m]; x.id < r.id || x.id == r.id && x.owner < r.owner {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Contains reports whether r is in the set.
func (s Set) Contains(r Ref) bool {
	i := s.search(r)
	return i < len(s.rs) && s.rs[i] == r
}

// Add inserts r, reporting whether the set changed.
func (s *Set) Add(r Ref) bool {
	i := s.search(r)
	if i < len(s.rs) && s.rs[i] == r {
		return false
	}
	s.rs = append(s.rs, Ref{})
	copy(s.rs[i+1:], s.rs[i:])
	s.rs[i] = r
	return true
}

// Remove deletes r, reporting whether it was present.
func (s *Set) Remove(r Ref) bool {
	i := s.search(r)
	if i >= len(s.rs) || s.rs[i] != r {
		return false
	}
	s.rs = append(s.rs[:i], s.rs[i+1:]...)
	return true
}

// AddAll inserts every element of o.
func (s *Set) AddAll(o Set) {
	for _, r := range o.rs {
		s.Add(r)
	}
}

// Slice returns the elements in increasing order. The returned slice
// aliases the set's storage; callers must not mutate it or hold it
// across set mutations.
func (s Set) Slice() []Ref { return s.rs }

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{rs: make([]Ref, len(s.rs))}
	copy(c.rs, s.rs)
	return c
}

// Equal reports whether both sets hold exactly the same elements.
func (s Set) Equal(o Set) bool {
	if len(s.rs) != len(o.rs) {
		return false
	}
	for i := range s.rs {
		if s.rs[i] != o.rs[i] {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() { s.rs = s.rs[:0] }

// Min returns the smallest element; ok is false when the set is empty.
func (s Set) Min() (r Ref, ok bool) {
	if len(s.rs) == 0 {
		return Ref{}, false
	}
	return s.rs[0], true
}

// Max returns the largest element; ok is false when the set is empty.
func (s Set) Max() (r Ref, ok bool) {
	if len(s.rs) == 0 {
		return Ref{}, false
	}
	return s.rs[len(s.rs)-1], true
}

// MaxBelow returns the largest element whose identifier is strictly
// smaller than id (linear order), as used by guards of the form
// "max{x : x < v}".
func (s Set) MaxBelow(id ident.ID) (Ref, bool) { return MaxBelow(s.rs, id) }

// MinAbove returns the smallest element whose identifier is strictly
// greater than id (linear order).
func (s Set) MinAbove(id ident.ID) (Ref, bool) { return MinAbove(s.rs, id) }

// MaxBelow is Set.MaxBelow over a slice sorted by Less. Identifiers
// never decrease along such a slice, so the answer is the element just
// before the first one whose identifier reaches id.
func MaxBelow(rs []Ref, id ident.ID) (Ref, bool) {
	if i := firstID(rs, id, false); i > 0 {
		return rs[i-1], true
	}
	return Ref{}, false
}

// MinAbove is Set.MinAbove over a slice sorted by Less: the first
// element whose identifier exceeds id.
func MinAbove(rs []Ref, id ident.ID) (Ref, bool) {
	if i := firstID(rs, id, true); i < len(rs) {
		return rs[i], true
	}
	return Ref{}, false
}

// firstID returns the index of the first element of the Less-sorted rs
// whose identifier is at least id, or, when above is set, greater than
// id.
func firstID(rs []Ref, id ident.ID, above bool) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := rs[m].id; x < id || above && x == id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// RemoveIf deletes every element for which drop returns true and
// reports how many were removed.
func (s *Set) RemoveIf(drop func(Ref) bool) int {
	kept := s.rs[:0]
	removed := 0
	for _, r := range s.rs {
		if drop(r) {
			removed++
		} else {
			kept = append(kept, r)
		}
	}
	s.rs = kept
	return removed
}

// String renders the set for logs and test failures.
func (s Set) String() string {
	return fmt.Sprintf("%v", s.rs)
}

// MaxWireLevel bounds the level of a reference in compact wire
// encodings: 64, the largest level a Ref represents, so a strict decoder
// rejects any larger one before it trusts a level to size anything.
const MaxWireLevel = 64
