package graph

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
)

// FuzzNeighborLists drives the sparse backend's list store with random
// append sequences over a few hundred nodes against a [][]int32 oracle. The
// op stream is read three bytes at a time: the top two bits of the first
// byte pick the op, the next two bytes the node. Ops 0 and 1 append a run
// of 1–64 entries — long enough for a list to cross shortRow, and leave
// the pool, within a few ops; op 2 freezes the store at its oracle's
// lengths, or thaws it if frozen; op 3 clones the store (thawed) and from
// then on alternates the appends between the original and the clone, each
// against its own oracle. After every op both stores must hold exactly
// their oracle's lists, their sampling reads must see each list cut to its
// length at freeze while frozen and whole otherwise, and the pool's layout
// must be whole: live and free blocks tile every page without overlap,
// free blocks carry their mark and links, no free block's buddy is free,
// and no page is all free.
func FuzzNeighborLists(f *testing.F) {
	f.Add(uint16(300), []byte{0, 0, 7, 63, 0, 7, 63, 0, 7, 5, 0, 8, 192, 0, 0, 63, 0, 7, 1, 0, 8})
	f.Add(uint16(1), []byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 192, 0, 0, 3, 0, 0})
	// Give each of 300 nodes a first entry, then grow every one of them
	// past shortRow: the pages they started in empty out and are released.
	// Clone, then append to node 300 in both stores: each makes a page in
	// an idle slot.
	var grow []byte
	for pass := range 3 {
		for u := range 300 {
			grow = append(grow, byte(min(pass, 1)*63), byte(u>>8), byte(u))
		}
	}
	grow = append(grow, 192, 0, 0, 2, 1, 44, 2, 1, 44, 63, 1, 44, 63, 1, 44)
	f.Add(uint16(301), grow)
	// 64 entries for each of 100 nodes, in one run each: every list climbs
	// through every order from a 4-entry block to a 64-entry one, over two
	// pages.
	var climb []byte
	for u := range 100 {
		climb = append(climb, 63, 0, byte(u))
	}
	f.Add(uint16(300), climb)
	// Freeze with node 7 at 3 entries and node 9 at 127, grow node 7 to a
	// bigger block and node 9 to a Go slice, clone the frozen store (the
	// clone is thawed), grow node 7 in both, then thaw the original.
	f.Add(uint16(20), []byte{2, 0, 7, 63, 0, 9, 62, 0, 9, 128, 0, 0, 1, 0, 7, 0, 0, 9, 192, 0, 0,
		7, 0, 7, 7, 0, 7, 0, 0, 3, 0, 0, 3, 128, 0, 0})
	f.Fuzz(func(t *testing.T, nodes uint16, ops []byte) {
		n := int(nodes)%400 + 1
		l, _ := newLists(n, BackendSparse)
		cur := &fuzzLists{l: l, oracle: make([][]int32, n)}
		var other *fuzzLists
		for i := 0; i+2 < len(ops); i += 3 {
			u := (int(ops[i+1])<<8 | int(ops[i+2])) % n
			switch ops[i] >> 6 {
			case 3:
				other = &fuzzLists{l: cur.l.clone(), oracle: make([][]int32, n)}
				for v := range cur.oracle {
					other.oracle[v] = slices.Clone(cur.oracle[v])
				}
				continue
			case 2:
				cur.toggle()
			default:
				if other != nil && i%2 == 0 {
					cur, other = other, cur
				}
				for range int(ops[i]&63) + 1 {
					v := int32((len(cur.oracle[u])*7 + u) % n)
					cur.l.add(u, v)
					cur.oracle[u] = append(cur.oracle[u], v)
				}
			}
			cur.check(t)
			if other != nil {
				other.check(t)
			}
		}
		cur.check(t)
	})
}

// fuzzLists is one store of FuzzNeighborLists with its oracle and, while
// frozen, the oracle's lengths at freeze.
type fuzzLists struct {
	l      *lists
	oracle [][]int32
	frozen []int
}

// toggle freezes a thawed store and thaws a frozen one.
func (s *fuzzLists) toggle() {
	if s.frozen != nil {
		s.l.frozen = s.l.frozen[:0]
		s.frozen = nil
		return
	}
	s.l.freeze(len(s.oracle))
	s.frozen = make([]int, len(s.oracle))
	for u, list := range s.oracle {
		s.frozen[u] = len(list)
	}
}

// check fails t unless the store holds its oracle's lists over a whole
// pool (checkLists) and its sampling reads see each list cut to its length
// at freeze while frozen, and whole otherwise.
func (s *fuzzLists) check(t *testing.T) {
	t.Helper()
	checkLists(t, s.l, s.oracle)
	bounds := make([]int32, len(s.oracle))
	s.l.sizes(0, bounds)
	for u, list := range s.oracle {
		if s.frozen != nil {
			list = list[:s.frozen[u]]
		}
		if got := s.l.drawn(u); !slices.Equal(got, list) || int(bounds[u]) != len(list) {
			t.Fatalf("list %d drawn as %v (bound %d), want %v", u, got, bounds[u], list)
		}
	}
}

// checkLists fails t unless l holds exactly oracle's lists over a whole
// pool: live and free blocks, each aligned to its size, and the newest
// page's never handed out tail tile every live page exactly; every free
// block is marked with its order and linked both ways, and its list's held
// bit is set; no free block has a free buddy of its order; every live page
// but the newest holds a live block; and the released pages are exactly
// the idle ones.
func checkLists(t *testing.T, l *lists, oracle [][]int32) {
	t.Helper()
	type block struct {
		at  uint32
		k   int
		who int32 // the list's node, or -1 for a free block
	}
	var blocks []block
	long := 0
	for u, want := range oracle {
		got := l.list(u)
		if !slices.Equal(got, want) || l.size(u) != len(want) {
			t.Fatalf("list %d = %v (size %d), want %v", u, got, l.size(u), want)
		}
		switch s := l.spans[u]; {
		case s.n >= shortRow:
			long++
		case s.n > 0:
			if cap(got) != len(got) {
				t.Fatalf("pooled list %d has cap %d > len %d", u, cap(got), len(got))
			}
			blocks = append(blocks, block{s.at, blockOrder(uint32(s.n)), int32(u)})
		}
	}
	for _, list := range l.long {
		if list != nil {
			long--
		}
	}
	if long != 0 {
		t.Fatalf("%d more Go-slice lists than lists of shortRow entries", -long)
	}
	for k, head := range l.free {
		if (head != noBlock) != (l.held&(1<<k) != 0) {
			t.Fatalf("free list %d has head %d but held bit %v", k, head, l.held&(1<<k) != 0)
		}
		prev := uint32(noBlock)
		for at := head; at != noBlock; prev, at = at, uint32(l.block(at)[1]) {
			if len(blocks) > len(l.pages)<<pageBits {
				t.Fatalf("free list of order %d does not end", k)
			}
			blocks = append(blocks, block{at, k, -1})
			if b := l.block(at); b[0] != ^int32(k) || uint32(b[2]) != prev {
				t.Fatalf("free block at %d: mark %d, back link %d; want %d, %d", at, b[0], uint32(b[2]), ^int32(k), prev)
			}
			if buddy := at ^ 1<<k; k < pageBits && l.block(buddy)[0] == ^int32(k) {
				t.Fatalf("free blocks at %d and %d of order %d not merged", at, buddy, k)
			}
		}
	}
	if l.fresh < l.freshEnd { // the newest page's never handed out tail
		blocks = append(blocks, block{l.fresh, bits.Len32(l.freshEnd-l.fresh) - 1, -2})
	}
	slices.SortFunc(blocks, func(a, b block) int { return cmp.Compare(a.at, b.at) })
	i, released := 0, 0
	for p, page := range l.pages {
		if page == nil {
			if p != 0 && !slices.Contains(l.idle, uint32(p)) {
				t.Fatalf("page %d is nil but not idle", p)
			}
			released++
			continue
		}
		live := false
		at, end := uint32(p)<<pageBits, uint32(p+1)<<pageBits
		for at < end {
			if i == len(blocks) || blocks[i].at != at {
				t.Fatalf("page %d: no block starts at %d, where the one before ends", p, at)
			}
			b := blocks[i]
			if b.who == -2 { // the tail runs to the end of its page
				at, i = end, i+1
				continue
			}
			if b.at&(1<<b.k-1) != 0 {
				t.Fatalf("block of order %d at %d (owner %d) is misaligned", b.k, b.at, b.who)
			}
			live = live || b.who >= 0
			at += 1 << b.k
			i++
		}
		if at != end {
			t.Fatalf("a block runs past the end of page %d", p)
		}
		if !live && uint32(p) != l.freshEnd>>pageBits-1 {
			t.Fatalf("page %d is all free but not released", p)
		}
	}
	if i != len(blocks) {
		t.Fatalf("block of order %d at %d (owner %d) lies in no live page", blocks[i].k, blocks[i].at, blocks[i].who)
	}
	if released != len(l.idle)+1 {
		t.Fatalf("%d nil pages, %d idle", released, len(l.idle))
	}
}

// TestPoolFreesPageTail: a block too big for what is left of the newest
// page comes from a new page, and the page's tail goes on a free list.
func TestPoolFreesPageTail(t *testing.T) {
	l, _ := newLists(1, BackendSparse)
	first := l.alloc(minOrder)
	for l.fresh+1<<minOrder < l.freshEnd {
		l.alloc(minOrder)
	}
	tail := l.fresh
	if at := l.alloc(minOrder + 1); at>>pageBits == first>>pageBits {
		t.Fatalf("an 8-entry block at %d fits the 4 entries left at %d", at, tail)
	}
	if l.free[minOrder] != tail || l.block(tail)[0] != ^int32(minOrder) {
		t.Fatalf("the tail at %d is not free: order-%d list starts at %d", tail, minOrder, l.free[minOrder])
	}
}
