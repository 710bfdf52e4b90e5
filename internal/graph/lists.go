package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// lists holds a graph's neighbor lists in insertion order. On the dense
// backend list u is the Go slice long[u] and spans is nil. On the sparse
// backend spans[u] holds list u's length and, below shortRow entries, the
// block of the pool that holds it: the pages hold no pointers, so there is
// no object per node for the collector, and an 8-byte span instead of a
// 24-byte slice header. From shortRow on list u is the Go slice long[u];
// the first such list allocates long.
//
// The pool is a buddy allocator. A list of n entries sits in a block of
// max(4, n rounded up to a power of two) entries: it is full exactly when
// n is a power of two ≥ 4, and then moves to a block twice its size. A
// free block of order k (1<<k entries) holds ^k, which no node id can, and
// its free-list links in its first three entries; a freed block merges
// with its free buddy, and a whole free page goes back to the Go heap.
//
// Between freeze and thaw, frozen holds every list's length at freeze, and
// the sampling reads (drawn, sizes) see each list cut to it. A list only
// grows at its end, and a move to a bigger block or to a Go slice copies
// its entries in order, so the cut list is the list as it was at freeze.
type lists struct {
	spans           []span
	long            [][]int32
	pages           [][]int32            // nil where a page has been released, and at 0
	free            [pageBits + 1]uint32 // each order's free list, noBlock if empty
	held            uint32               // bit k set while free[k] is not empty
	idle            []uint32             // indices of released pages, reused before the pool grows
	fresh, freshEnd uint32               // the newest page's never handed out, unlisted tail
	frozen          []int32              // the lengths at freeze; empty while thawed, its storage kept
}

// span is a list of n entries on the sparse backend, at pool address at
// (page<<pageBits | offset) while n < shortRow.
type span struct {
	at uint32
	n  int32
}

const (
	pageBits = 12 // a page holds 4096 entries, 16 KiB
	minOrder = 2  // the smallest block, 4 entries, holds a free block's mark and links
	noBlock  = 0  // no block starts there: page 0 is never made
)

// newLists returns the empty lists of an n-node graph and the row store
// over them, on backend b resolved. Spans and rows address nodes in 32
// bits, whatever the backend, so n is checked before anything is allocated.
func newLists(n int, b Backend) (*lists, rowStore) {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d outside [0, %d]", n, math.MaxInt32))
	}
	if b.resolve(n) == BackendDense {
		return &lists{long: make([][]int32, n)}, newDenseRows(n)
	}
	// Page 0 is never made: an empty list's span, {0, 0}, slices it to nil.
	l := &lists{spans: make([]span, n), pages: make([][]int32, 1)}
	return l, newSparseRows(n, l)
}

// list returns node u's list. A pooled list is sliced to exactly its
// entries, capacity included, so no read or append through it reaches the
// next block.
func (l *lists) list(u int) []int32 {
	if l.spans != nil && l.spans[u].n < shortRow {
		s := l.spans[u]
		return l.block(s.at)[:s.n:s.n]
	}
	return l.long[u]
}

// size returns the length of node u's list.
func (l *lists) size(u int) int {
	if l.spans == nil {
		return len(l.long[u])
	}
	return int(l.spans[u].n)
}

// drawn returns node u's list as the sampling reads see it: cut to its
// length at freeze while frozen, whole otherwise.
func (l *lists) drawn(u int) []int32 {
	list := l.list(u)
	if len(l.frozen) != 0 {
		list = list[:l.frozen[u]]
	}
	return list
}

// sizes writes the lengths of lists lo, lo+1, …, lo+len(ds)-1 as the
// sampling reads see them into ds: their lengths at freeze while frozen.
func (l *lists) sizes(lo int, ds []int32) {
	switch {
	case len(l.frozen) != 0:
		copy(ds, l.frozen[lo:])
	case l.spans == nil:
		for k, list := range l.long[lo : lo+len(ds)] {
			ds[k] = int32(len(list))
		}
	default:
		for k, s := range l.spans[lo : lo+len(ds)] {
			ds[k] = s.n
		}
	}
}

// freeze cuts the sampling reads of the n lists at their current lengths
// until a thaw empties frozen; the first freeze allocates its 4n bytes.
func (l *lists) freeze(n int) {
	if cap(l.frozen) < n {
		l.frozen = make([]int32, 0, n)
	}
	l.frozen = l.frozen[:0]
	l.sizes(0, l.frozen[:n])
	l.frozen = l.frozen[:n]
}

// add appends v to node u's list.
func (l *lists) add(u int, v int32) {
	if l.spans == nil {
		if l.long[u] == nil { // skip growslice: a first entry allocates at append's capacity
			l.long[u] = make([]int32, 0, 2)
		}
		l.long[u] = append(l.long[u], v)
		return
	}
	s := &l.spans[u]
	switch n := uint32(s.n); {
	case n >= shortRow:
		l.long[u] = append(l.long[u], v)
	case n == shortRow-1: // the list moves to a Go slice
		if l.long == nil {
			l.long = make([][]int32, len(l.spans))
		}
		l.long[u] = append(append(make([]int32, 0, 2*shortRow), l.list(u)...), v)
		l.release(s.at, blockOrder(n))
	default:
		if n == 0 {
			s.at = l.alloc(minOrder)
		} else if n >= 1<<minOrder && n&(n-1) == 0 { // the block is full
			at := l.alloc(blockOrder(n + 1))
			copy(l.block(at), l.list(u))
			l.release(s.at, blockOrder(n))
			s.at = at
		}
		l.block(s.at)[n] = v
	}
	s.n++
}

// blockOrder returns the order of the block of a list of n >= 1 entries.
func blockOrder(n uint32) int {
	return max(minOrder, bits.Len32(n-1))
}

// block returns the pool entries from address at to the end of its page.
func (l *lists) block(at uint32) []int32 {
	return l.pages[at>>pageBits][at&(1<<pageBits-1):]
}

// alloc returns the address of a block of order k, taken from the smallest
// free block that fits, split down, or else carved from the newest page.
func (l *lists) alloc(k int) uint32 {
	j := k + bits.TrailingZeros32(l.held>>k)
	if j > pageBits {
		at := (l.fresh + 1<<k - 1) &^ (1<<k - 1)
		if at+1<<k > l.freshEnd {
			l.retire(l.freshEnd)
			at = l.newPage()
			l.fresh, l.freshEnd = at, at+1<<pageBits
		}
		l.retire(at) // the entries skipped to align the block
		l.fresh = at + 1<<k
		return at
	}
	at := l.free[j]
	l.unlink(at, j)
	for ; j > k; j-- {
		l.push(at+1<<(j-1), j-1) // keep the lower half, free the upper
	}
	return at // still marked free: the caller writes its first entry
}

// release frees the block of order k at address at, merging it with its
// buddy while the buddy is free, and releases the page once it is whole.
func (l *lists) release(at uint32, k int) {
	for ; k < pageBits; k++ {
		buddy := at ^ 1<<k
		if l.block(buddy)[0] != ^int32(k) {
			break
		}
		l.unlink(buddy, k)
		at &^= 1 << k
	}
	if k == pageBits { // the page is whole: hand it back
		l.pages[at>>pageBits], l.idle = nil, append(l.idle, at>>pageBits)
	} else {
		l.push(at, k)
	}
}

// retire frees [fresh, end) as the largest aligned blocks that tile it.
func (l *lists) retire(end uint32) {
	for l.fresh < end {
		k := min(bits.TrailingZeros32(l.fresh), bits.Len32(end-l.fresh)-1)
		l.release(l.fresh, k)
		l.fresh += 1 << k
	}
}

// push marks the block at address at free and heads order k's free list.
func (l *lists) push(at uint32, k int) {
	next, b := l.free[k], l.block(at)
	b[2], b[1], b[0] = noBlock, int32(next), ^int32(k)
	if next != noBlock {
		l.block(next)[2] = int32(at)
	}
	l.free[k] = at
	l.held |= 1 << k
}

// unlink takes the free block at address at out of order k's free list.
func (l *lists) unlink(at uint32, k int) {
	b := l.block(at)
	next, prev := uint32(b[1]), uint32(b[2])
	if prev == noBlock {
		l.free[k] = next
		if next == noBlock {
			l.held &^= 1 << k
		}
	} else {
		l.block(prev)[1] = int32(next)
	}
	if next != noBlock {
		l.block(next)[2] = int32(prev)
	}
}

// newPage adds a page to the pool, in a released page's slot if there is
// one, and returns its address.
func (l *lists) newPage() uint32 {
	if k := len(l.idle); k > 0 {
		p := l.idle[k-1]
		l.idle, l.pages[p] = l.idle[:k-1], make([]int32, 1<<pageBits)
		return p << pageBits
	}
	if len(l.pages) == 1<<(32-pageBits)-1 { // so that no page ends at 1<<32
		panic("graph: neighbor-list pool exceeds its 32-bit address space")
	}
	l.pages = append(l.pages, make([]int32, 1<<pageBits))
	return uint32(len(l.pages)-1) << pageBits
}

// copyTo inserts, then appends, each entry of lists 0..n-1 into rows and c:
// a store that reads c must not find an entry there before it is inserted.
func (l *lists) copyTo(n int, c *lists, rows rowStore) {
	for u := range n {
		for _, v := range l.list(u) {
			rows.insert(u, int(v))
			c.add(u, v)
		}
	}
}

// clone returns a deep copy, thawed: page by page, plus each Go-slice list.
func (l *lists) clone() *lists {
	c := *l
	c.frozen = nil
	c.spans, c.idle = slices.Clone(l.spans), slices.Clone(l.idle)
	c.long, c.pages = slices.Clone(l.long), slices.Clone(l.pages)
	for _, ls := range [][][]int32{c.long, c.pages} {
		for i := range ls {
			ls[i] = slices.Clone(ls[i])
		}
	}
	return &c
}
