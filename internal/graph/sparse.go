package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"gossipdisc/internal/bitset"
)

// sparseRows is the O(m)-memory row store. A row climbs a three-step
// ladder, each step chosen by the row's own length:
//
//   - list: with fewer than shortRow entries a row has no storage of its
//     own — it is the owning graph's neighbor list of u, which the graph
//     appends to after every accepted insert. Membership is a linear scan of
//     a list the act phase reads anyway; the ordered views sort the entries
//     into a stack buffer on demand.
//   - sorted: from shortRow entries on, a sorted []int32 copy (4 bytes per
//     entry) answers membership and the ordered views by binary search.
//   - bitset: from promoteAt entries on — the density at which the sorted
//     form's memory crosses the n-bit row's (32d bits vs n bits at d = n/32)
//     — a bitset row answers everything with the dense primitives. Where
//     promoteAt <= shortRow (n up to 32·shortRow = 4096) rows go list →
//     bitset and the sorted form never appears.
//
// Graphs only ever add edges, so rows only climb. Every form gives identical
// answers, pinned by FuzzSparseRow and the cross-backend equivalence suite.
type sparseRows struct {
	universe  int
	promoteAt int
	lists     *lists       // the owning graph's neighbor lists, shared, never written here
	rows      []*sparseRow // rows[u] holds row u once it is long; nil until a row is
}

// sparseRow is the storage of a row that outgrew its list: sorted entries,
// or a bitset once promoted. Exactly one of sorted/bits is in use (bits !=
// nil ⇔ promoted); cnt counts a promoted row's entries.
type sparseRow struct {
	sorted []int32
	bits   *bitset.Set
	cnt    int
}

// shortRow is the length at which a row stops being its graph's neighbor
// list and gets a sorted copy: below it a linear scan of at most eight cache
// lines costs about what a mispredicting binary search does, and beats
// maintaining (allocating, growing, shifting) a second copy of every edge
// endpoint. Sized on cmd/bench's sparse workloads; see DESIGN.md "Graph
// backends".
const shortRow = 128

// sparsePromoteFloor is the minimum promotion threshold: below 16 entries a
// bitset row is never cheaper, whatever the universe.
const sparsePromoteFloor = 16

func promoteThreshold(n int) int {
	return max(sparsePromoteFloor, n/32)
}

// newSparseRows builds an empty store over lists, the owning graph's n
// neighbor lists. The graph must append v to list u after every
// insert(u, v) that returns true, before the next call on row u. The first
// row to outgrow its list allocates the row index, so a graph whose rows all
// stay short keeps no slot per node.
func newSparseRows(n int, lists *lists) *sparseRows {
	return &sparseRows{universe: n, promoteAt: promoteThreshold(n), lists: lists}
}

// short reports whether row u is still its list, which is exactly when its
// length is below the ladder's first step; otherwise rows[u] holds it.
func (s *sparseRows) short(u int) bool {
	return s.lists.size(u) < min(shortRow, s.promoteAt)
}

func (s *sparseRows) backend() Backend { return BackendSparse }

// find returns the position of v in sorted, or the insertion point if absent
// (second result false). The binary search is hand-rolled: it sits on the
// AddEdge/HasEdge hot path of every simulation loop, where sort.Search's
// per-probe closure call is measurable.
func find(sorted []int32, v int) (int, bool) {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(sorted[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(sorted) && int(sorted[lo]) == v
}

// promoted returns row u's bitset, or nil while the row is unpromoted.
func (s *sparseRows) promoted(u int) *bitset.Set {
	if s.short(u) {
		return nil
	}
	return s.rows[u].bits
}

// ordered returns the entries of an unpromoted row u in increasing order:
// its sorted copy, or a short row's list sorted into buf. buf is the
// caller's stack array, never a field of the store, so that reads stay
// read-only and safe from several goroutines at once.
func (s *sparseRows) ordered(u int, buf *[shortRow]int32) []int32 {
	if !s.short(u) {
		return s.rows[u].sorted
	}
	sorted := buf[:copy(buf[:], s.lists.list(u))]
	slices.Sort(sorted)
	return sorted
}

func (s *sparseRows) test(u, v int) bool {
	if s.short(u) {
		return slices.Contains(s.lists.list(u), int32(v))
	}
	r := s.rows[u]
	if r.bits != nil {
		return r.bits.Test(v)
	}
	_, ok := find(r.sorted, v)
	return ok
}

func (s *sparseRows) insert(u, v int) bool {
	if s.short(u) {
		list := s.lists.list(u)
		if slices.Contains(list, int32(v)) {
			return false
		}
		if len(list)+1 < min(shortRow, s.promoteAt) {
			return true // the graph's append is the insert
		}
		if s.rows == nil {
			s.rows = make([]*sparseRow, s.universe)
		}
		s.rows[u] = &sparseRow{sorted: slices.Clone(list)}
		slices.Sort(s.rows[u].sorted)
	}
	r := s.rows[u]
	if r.bits != nil {
		if r.bits.OrWord(v>>6, 1<<(uint(v)&63)) == 0 {
			return false
		}
		r.cnt++
		return true
	}
	i, ok := find(r.sorted, v)
	if ok {
		return false
	}
	r.sorted = append(r.sorted, 0)
	copy(r.sorted[i+1:], r.sorted[i:])
	r.sorted[i] = int32(v)
	if len(r.sorted) >= s.promoteAt {
		r.bits = bitset.New(s.universe)
		for _, w := range r.sorted {
			r.bits.Set(int(w))
		}
		r.cnt = len(r.sorted)
		r.sorted = nil
	}
	return true
}

// insertAbsent is insert(u, v) for a v the caller knows is not in row u —
// the mirror half of a symmetric insert whose first half was accepted — so a
// short row that stays short skips the scan of its list.
func (s *sparseRows) insertAbsent(u, v int) {
	if s.lists.size(u)+1 < min(shortRow, s.promoteAt) {
		return // the graph's append is the insert
	}
	s.insert(u, v)
}

func (s *sparseRows) count(u int) int {
	if s.short(u) {
		return s.lists.size(u)
	}
	r := s.rows[u]
	if r.bits != nil {
		return r.cnt
	}
	return len(r.sorted)
}

func (s *sparseRows) forEach(u int, fn func(v int)) {
	if b := s.promoted(u); b != nil {
		b.ForEach(fn)
		return
	}
	var buf [shortRow]int32
	for _, v := range s.ordered(u, &buf) {
		fn(int(v))
	}
}

func (s *sparseRows) rank(u, v int) int {
	if s.short(u) {
		below := 0
		for _, w := range s.lists.list(u) {
			if int(w) < v {
				below++
			}
		}
		return below
	}
	r := s.rows[u]
	if r.bits != nil {
		return r.bits.Rank(v)
	}
	i, _ := find(r.sorted, v)
	return i
}

func (s *sparseRows) selectClear(u, k int) int {
	if k < 0 {
		return -1
	}
	if b := s.promoted(u); b != nil {
		return b.SelectClear(k)
	}
	var buf [shortRow]int32
	sorted := s.ordered(u, &buf)
	// The number of absent values below sorted[i] is sorted[i]-i; the k-th
	// absent value therefore lands after exactly i entries, where i is the
	// first position with sorted[i]-i > k, and equals k+i.
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(sorted[mid])-mid > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if v := k + lo; v < s.universe {
		return v
	}
	return -1
}

func (s *sparseRows) checkTarget(target *bitset.Set) {
	if target.Len() != s.universe {
		panic(fmt.Sprintf("graph: target capacity %d != universe %d", target.Len(), s.universe))
	}
}

func (s *sparseRows) diffCount(u int, target *bitset.Set) int {
	if b := s.promoted(u); b != nil {
		return target.DiffCount(b)
	}
	s.checkTarget(target)
	c := target.Count()
	for _, v := range s.lists.list(u) { // any order will do
		if target.Test(int(v)) {
			c--
		}
	}
	return c
}

func (s *sparseRows) selectDiff(u int, target *bitset.Set, k int) int {
	if b := s.promoted(u); b != nil {
		return target.SelectDiff(b, k)
	}
	s.checkTarget(target)
	if k < 0 {
		return -1
	}
	// Walk target's words with a cursor into the sorted entries: mask the
	// row's bits out of each word and select within the remainder —
	// O(n/64 + d) without materializing the row as a bitset.
	var buf [shortRow]int32
	sorted := s.ordered(u, &buf)
	ri := 0
	for wi, nw := 0, target.Words(); wi < nw; wi++ {
		d := target.Word(wi)
		hi := (wi + 1) * 64
		for ri < len(sorted) && int(sorted[ri]) < hi {
			d &^= 1 << (uint(sorted[ri]) & 63)
			ri++
		}
		c := bits.OnesCount64(d)
		if k < c {
			for ; k > 0; k-- {
				d &= d - 1
			}
			return wi*64 + bits.TrailingZeros64(d)
		}
		k -= c
	}
	return -1
}

func (s *sparseRows) row(u int) *bitset.Set {
	if b := s.promoted(u); b != nil {
		return b
	}
	b := bitset.New(s.universe)
	for _, v := range s.lists.list(u) {
		b.Set(int(v))
	}
	return b
}

func (s *sparseRows) clone(lists *lists) rowStore {
	c := newSparseRows(s.universe, lists)
	c.rows = slices.Clone(s.rows) // nil stays nil; the rows are deep-copied below
	for u, r := range c.rows {
		if r == nil {
			continue
		}
		c.rows[u] = &sparseRow{sorted: slices.Clone(r.sorted), cnt: r.cnt}
		if r.bits != nil {
			c.rows[u].bits = r.bits.Clone()
		}
	}
	return c
}
