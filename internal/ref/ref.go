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
	"sort"

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

func (s Set) search(r Ref) int {
	return sort.Search(len(s.rs), func(i int) bool { return !s.rs[i].Less(r) })
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

// MergeSorted sets s to the deduplicated union of the two sorted ref
// slices (both ordered by Less, duplicates within an input allowed),
// reusing s's storage. A linear two-pointer merge: unions of many sets
// build in O(total) instead of Add's per-element binary search plus
// insertion shift. The inputs must not alias s's storage.
func (s *Set) MergeSorted(a, b []Ref) {
	out := s.rs[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var r Ref
		switch {
		case a[i] == b[j]:
			r = a[i]
			i++
			j++
		case a[i].Less(b[j]):
			r = a[i]
			i++
		default:
			r = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != r {
			out = append(out, r)
		}
	}
	for ; i < len(a); i++ {
		if len(out) == 0 || out[len(out)-1] != a[i] {
			out = append(out, a[i])
		}
	}
	for ; j < len(b); j++ {
		if len(out) == 0 || out[len(out)-1] != b[j] {
			out = append(out, b[j])
		}
	}
	s.rs = out
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

// CopyFrom makes s an exact copy of o, reusing s's storage.
func (s *Set) CopyFrom(o Set) {
	s.rs = append(s.rs[:0], o.rs...)
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
func (s Set) MaxBelow(id ident.ID) (Ref, bool) {
	var best Ref
	ok := false
	for i := len(s.rs) - 1; i >= 0; i-- {
		if s.rs[i].ID() < id {
			// Slice is ordered by (id, owner, level); the first hit
			// scanning from the top is the maximum below id.
			best, ok = s.rs[i], true
			break
		}
	}
	return best, ok
}

// MinAbove returns the smallest element whose identifier is strictly
// greater than id (linear order).
func (s Set) MinAbove(id ident.ID) (Ref, bool) {
	for _, r := range s.rs {
		if r.ID() > id {
			return r, true
		}
	}
	return Ref{}, false
}

// Filter returns a new set with the elements for which keep returns
// true.
func (s Set) Filter(keep func(Ref) bool) Set {
	var out Set
	for _, r := range s.rs {
		if keep(r) {
			out.rs = append(out.rs, r)
		}
	}
	return out
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
