// Package bitset provides a compact fixed-capacity bit set used by the
// happens-before engine for transitive-closure computation and by the
// directory protocol for sharer tracking.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bit set over [0, Len()). The zero value is an empty set of
// capacity zero; construct with New for a given capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionWith ors other into s; both must have equal capacity. It reports
// whether s changed.
func (s *Set) UnionWith(other *Set) bool {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, other.n))
	}
	changed := false
	for i, w := range other.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith ands other into s; both must have equal capacity.
func (s *Set) IntersectWith(other *Set) {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, other.n))
	}
	for i, w := range other.words {
		s.words[i] &= w
	}
}

// DifferenceWith removes other's members from s; both must have equal
// capacity.
func (s *Set) DifferenceWith(other *Set) {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, other.n))
	}
	for i, w := range other.words {
		s.words[i] &^= w
	}
}

// CopyFrom overwrites s with other's contents; both must have equal
// capacity.
func (s *Set) CopyFrom(other *Set) {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, other.n))
	}
	copy(s.words, other.words)
}

// Fill sets every bit in [0, Len()).
func (s *Set) Fill() {
	if s.n == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Clear the tail bits beyond n in the last word.
	if rem := s.n % wordBits; rem != 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Equal reports whether s and other hold exactly the same members; both
// must have equal capacity.
func (s *Set) Equal(other *Set) bool {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, other.n))
	}
	for i, w := range other.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := New(s.n)
	copy(out.words, s.words)
	return out
}

// ForEach calls fn for every set bit in ascending order; fn returning
// false stops iteration.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Members returns the set bits in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// String renders the set like "{1, 4, 7}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
