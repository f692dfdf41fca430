package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over [0, n). Methods that take an element i
// with i outside [0, n) panic; growing is explicit via Grow.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set capable of holding the elements 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Grow extends the capacity of the set to at least n bits, preserving
// contents. Shrinking is not supported; Grow to a smaller n is a no-op.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	need := (n + wordBits - 1) / wordBits
	if need > len(s.words) {
		w := make([]uint64, need)
		copy(w, s.words)
		s.words = w
	}
	s.n = n
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: element " + strconv.Itoa(i) + " out of range [0," + strconv.Itoa(s.n) + ")")
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// TestAndAdd inserts i and reports whether it was already present.
func (s *Set) TestAndAdd(i int) bool {
	s.check(i)
	w, b := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	old := s.words[w]&b != 0
	s.words[w] |= b
	return old
}

// Count returns the number of elements in the set (temporal's tests count
// ReachableSets' sets with it).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill inserts every element of [0, n).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits above capacity in the last word so that Count and
// iteration never see phantom elements.
func (s *Set) trim() {
	if r := uint(s.n) % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of t. The two sets must have the
// same capacity.
func (s *Set) CopyFrom(t *Set) {
	if s.n != t.n {
		panic("bitset: CopyFrom capacity mismatch")
	}
	copy(s.words, t.words)
}

// Union replaces s with s ∪ t. The sets must have the same capacity.
func (s *Set) Union(t *Set) {
	if s.n != t.n {
		panic("bitset: Union capacity mismatch")
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersect replaces s with s ∩ t. The sets must have the same capacity.
func (s *Set) Intersect(t *Set) {
	if s.n != t.n {
		panic("bitset: Intersect capacity mismatch")
	}
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Subtract replaces s with s \ t. The sets must have the same capacity.
func (s *Set) Subtract(t *Set) {
	if s.n != t.n {
		panic("bitset: Subtract capacity mismatch")
	}
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Equal reports whether s and t contain exactly the same elements. Sets of
// different capacity are never equal.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Next returns the smallest element >= i in the set, or -1 if there is none.
// It allows allocation-free iteration:
//
//	for v := s.Next(0); v >= 0; v = s.Next(v + 1) { ... }
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i / wordBits
	word := s.words[w] >> (uint(i) % wordBits)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}

// ForEach calls fn for every element in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w*wordBits + b)
			word &= word - 1
		}
	}
}

// String renders the set as "{e1 e2 ...}"; intended for tests and debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
