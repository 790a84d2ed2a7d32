// Package ref defines references to Re-Chord nodes (real and virtual)
// and the ordered sets used to represent the neighborhoods N_u, N_r and
// N_c of Section 2.2.
//
// A node in the Re-Chord graph is either a real node (a peer) or one of
// its simulated virtual nodes u_i = u + 1/2^i (mod 1). An edge endpoint
// therefore needs more than a bare identifier: two distinct virtual
// nodes of different owners can in principle share an identifier. A Ref
// carries the owner's identifier and the virtual level, from which the
// node's own identifier is derived. Equality is on (owner, level);
// ordering is by identifier with (owner, level) tie-breaking so that
// every min/max/sort operation in the protocol rules is total and
// deterministic.
package ref

import (
	"cmp"
	"fmt"

	"repro/internal/ident"
)

// Ref identifies a node in the Re-Chord graph.
type Ref struct {
	// Owner is the identifier of the real node (peer) this node
	// belongs to. For a real node, Owner is the node's own identifier.
	Owner ident.ID
	// Level is the virtual-node level i in u_i = u + 1/2^i; level 0 is
	// the real node itself.
	Level int
}

// Real constructs a reference to the real node with identifier u.
func Real(u ident.ID) Ref { return Ref{Owner: u} }

// Virtual constructs a reference to the level-i virtual node of u.
func Virtual(u ident.ID, level int) Ref { return Ref{Owner: u, Level: level} }

// ID returns the node's position in the identifier space.
func (r Ref) ID() ident.ID { return ident.Sibling(r.Owner, r.Level) }

// IsReal reports whether the reference denotes a real node (a peer).
func (r Ref) IsReal() bool { return r.Level == 0 }

// Less imposes the total order used by all protocol rules: by
// identifier first (the linear order on [0,1) the linearization rules
// sort by), breaking identifier ties by owner and level so distinct
// nodes never compare equal.
func (r Ref) Less(o Ref) bool {
	a, b := r.ID(), o.ID()
	if a != b {
		return a < b
	}
	if r.Owner != o.Owner {
		return r.Owner < o.Owner
	}
	return r.Level < o.Level
}

// Compare is the three-way form of Less, the comparison slices.SortFunc
// takes.
func (r Ref) Compare(o Ref) int {
	return cmp.Or(cmp.Compare(r.ID(), o.ID()), cmp.Compare(r.Owner, o.Owner), cmp.Compare(r.Level, o.Level))
}

// String renders the reference for logs and test failures.
func (r Ref) String() string {
	if r.IsReal() {
		return fmt.Sprintf("R(%s)", r.Owner)
	}
	return fmt.Sprintf("V(%s@%d=%s)", r.Owner, r.Level, r.ID())
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
// closure-free binary search that derives the probe's identifier once.
func (s Set) search(r Ref) int {
	id := r.ID()
	lo, hi := 0, len(s.rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		x := s.rs[m]
		if xid := x.ID(); xid < id || xid == id && (x.Owner < r.Owner || x.Owner == r.Owner && x.Level < r.Level) {
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
		if x := rs[m].ID(); x < id || above && x == id {
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

// MaxWireLevel bounds Ref.Level in compact wire encodings: protocol
// refs never exceed ident.MaxLevel, and the one-byte headroom keeps
// the bound cheap for a strict decoder to enforce before it trusts a
// level to size anything.
const MaxWireLevel = 255

// WireValid reports whether the reference may appear on the wire: a
// non-negative level within MaxWireLevel. Encoders check it before
// emitting, decoders after reading.
func (r Ref) WireValid() bool { return r.Level >= 0 && r.Level <= MaxWireLevel }
