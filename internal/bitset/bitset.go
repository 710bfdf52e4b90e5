// Package bitset implements a dense, fixed-capacity bitset.
//
// The simulators use bitsets for reachability and transitive-closure
// computations on directed graphs, where an n×n boolean matrix stored as n
// bitsets supports the union-heavy inner loops of BFS-based closure with
// word-level parallelism. The OrWord primitive additionally exposes a fused
// word-level test-and-set, which the graph's per-edge inserts and promoted
// sparse rows use to insert an entry and learn whether it was new in a
// single load/store; View lays a set over words the caller owns, which is
// how the dense graph backend keeps all its rows in one slab.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, Len()).
type Set struct {
	words []uint64
	n     int
}

// New returns a set with capacity for n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// View returns a set over the universe [0, n) whose bits live in words,
// which the caller owns: the set neither copies nor grows them. It is how
// one flat slab backs every row of a bit matrix (graph's dense rows) —
// pass a three-index slice so that no operation on one view can reach its
// neighbor's words. It panics unless len(words) is exactly the ⌈n/64⌉ words
// New(n) would allocate.
func View(words []uint64, n int) Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	if want := (n + wordBits - 1) / wordBits; len(words) != want {
		panic(fmt.Sprintf("bitset: view of %d bits over %d words, want %d", n, len(words), want))
	}
	return Set{words: words, n: n}
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// OrWord ors mask into the wi-th 64-bit word (bit j of the word is bit
// wi*64+j of the set) and returns the bits that were newly set (mask &^
// old). This is the graph row stores' fused test-and-set: one load/store
// answers "was this bit set?" and sets it, where Test+Set would cost two.
// Callers must not set bits at or beyond Len(); doing so corrupts Count and
// iteration.
func (s *Set) OrWord(wi int, mask uint64) uint64 {
	old := s.words[wi]
	s.words[wi] = old | mask
	return mask &^ old
}

// Word returns the wi-th 64-bit word of the set (bit j of the word is bit
// wi*64+j of the set). It is the read-only escape hatch for word-at-a-time
// consumers — the sparse graph backend walks a target row's words against
// its sorted adjacency entries without materializing a second bitset.
func (s *Set) Word(wi int) uint64 { return s.words[wi] }

// Words returns the number of 64-bit words backing the set.
func (s *Set) Words() int { return len(s.words) }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (s *Set) None() bool { return !s.Any() }

// All reports whether all n bits are set.
func (s *Set) All() bool { return s.Count() == s.n }

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in [0, Len()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim clears any bits above the universe in the last word.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// UnionWith ors other into s and reports whether s changed.
// The sets must have equal capacity.
func (s *Set) UnionWith(other *Set) bool {
	s.mustMatch(other)
	changed := false
	for i, w := range other.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			changed = true
			s.words[i] = nw
		}
	}
	return changed
}

// IntersectWith ands other into s.
func (s *Set) IntersectWith(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// DifferenceWith removes other's bits from s.
func (s *Set) DifferenceWith(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// Equal reports whether the two sets hold exactly the same bits.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every bit of s is also set in other.
func (s *Set) IsSubsetOf(other *Set) bool {
	s.mustMatch(other)
	for i := range s.words {
		if s.words[i]&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

func (s *Set) mustMatch(other *Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: size mismatch %d vs %d", s.n, other.n))
	}
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Slice returns the indices of set bits in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// nthSetBit returns the index (0-63) of the k-th set bit of w. The caller
// guarantees k < OnesCount64(w).
func nthSetBit(w uint64, k int) int {
	for ; k > 0; k-- {
		w &= w - 1
	}
	return bits.TrailingZeros64(w)
}

// Rank returns the number of set bits in [0, i). Arguments outside the
// universe are clamped, so Rank(Len()) == Count().
func (s *Set) Rank(i int) int {
	if i <= 0 {
		return 0
	}
	if i > s.n {
		i = s.n
	}
	wi := i / wordBits
	c := 0
	for j := 0; j < wi; j++ {
		c += bits.OnesCount64(s.words[j])
	}
	if rem := uint(i) % wordBits; rem != 0 {
		c += bits.OnesCount64(s.words[wi] & ((1 << rem) - 1))
	}
	return c
}

// SelectClear returns the index of the k-th (0-based) clear bit in
// [0, Len()), or -1 if fewer than k+1 bits are clear. Together with a
// per-row missing counter this is the complement row's uniform sampler:
// draw k, select the k-th clear bit, all in O(Len()/64).
func (s *Set) SelectClear(k int) int {
	if k < 0 {
		return -1
	}
	for wi, w := range s.words {
		inv := ^w
		if wi == len(s.words)-1 && s.n%wordBits != 0 {
			inv &= (1 << (uint(s.n) % wordBits)) - 1
		}
		c := bits.OnesCount64(inv)
		if k < c {
			return wi*wordBits + nthSetBit(inv, k)
		}
		k -= c
	}
	return -1
}

// SelectDiff returns the index of the k-th (0-based) set bit of s &^ other,
// or -1 if the difference has fewer than k+1 bits. The sets must have equal
// capacity. This is the directed dense phase's sampler: the k-th closure
// arc of a row still missing from the graph, without materializing the
// difference.
func (s *Set) SelectDiff(other *Set, k int) int {
	s.mustMatch(other)
	if k < 0 {
		return -1
	}
	for wi, w := range s.words {
		d := w &^ other.words[wi]
		c := bits.OnesCount64(d)
		if k < c {
			return wi*wordBits + nthSetBit(d, k)
		}
		k -= c
	}
	return -1
}

// DiffCount returns the number of set bits of s &^ other without
// materializing the difference. The sets must have equal capacity.
func (s *Set) DiffCount(other *Set) int {
	s.mustMatch(other)
	c := 0
	for wi, w := range s.words {
		c += bits.OnesCount64(w &^ other.words[wi])
	}
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as a brace-delimited index list, e.g. {0 3 9}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
