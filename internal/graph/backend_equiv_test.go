package graph

import (
	"fmt"
	"slices"
	"testing"

	"gossipdisc/internal/bitset"
	"gossipdisc/internal/rng"
)

// This file is the cross-backend equivalence suite: randomized op sequences
// applied to the dense (golden) and sparse backends in lockstep, asserting
// identical observable state after every step. The universes are chosen so
// rows climb the sparse ladder mid-sequence — list → bitset where promoteAt
// <= shortRow, list → sorted → bitset above — pinning the complement-view
// flips. CI runs the whole file under -race.

// storePair drives a dense and a sparse rowStore in lockstep, playing the
// graph for the sparse store: it owns the neighbor lists the store reads and
// appends to them after every accepted insert.
type storePair struct {
	t      *testing.T
	n      int
	dense  rowStore
	lists  *lists
	sparse rowStore
}

func newStorePair(t *testing.T, n int) *storePair {
	adj, sparse := newLists(n, BackendSparse)
	return &storePair{t: t, n: n, dense: newDenseRows(n), lists: adj, sparse: sparse}
}

func (p *storePair) insert(u, v int) {
	d := p.dense.insert(u, v)
	s := p.sparse.insert(u, v)
	if d != s {
		p.t.Fatalf("n=%d insert(%d,%d): dense %v sparse %v", p.n, u, v, d, s)
	}
	if s {
		p.lists.add(u, int32(v))
	}
}

// sparseForm names the rung of the sparse ladder row u of store stands on,
// read as the store reads it: through the row's length.
func sparseForm(store rowStore, u int) string {
	s := store.(*sparseRows)
	switch {
	case s.short(u):
		return "list"
	case s.rows[u].bits != nil:
		return "bitset"
	default:
		return "sorted"
	}
}

// ladderN is the smallest power-of-two universe where promoteAt (= n/32 =
// 2·shortRow) leaves room for the sorted form between list and bitset.
const ladderN = 64 * shortRow

// equivCases are the universes of the graph-level lockstep tests. Half of
// all tails are drawn from four hub nodes, so row 0 climbs as far as its
// universe lets it: it stays a list at n = 9, goes list → bitset where
// promoteAt = 16 < shortRow, and list → sorted → bitset at n = ladderN.
var equivCases = []struct {
	n, steps int
	forms    []string // every form row 0 must be seen in
}{
	{9, 60, []string{"list"}},
	{40, 60, []string{"list", "bitset"}},
	{64, 60, []string{"list", "bitset"}},
	{130, 60, []string{"list", "bitset"}},
	{ladderN, 5 * shortRow, []string{"list", "sorted", "bitset"}},
}

// hubTail draws an edge's first endpoint: one of the four hubs half the
// time, any node otherwise.
func hubTail(r *rng.Rand, n int) int {
	if r.Bool() {
		return r.Intn(4)
	}
	return r.Intn(n)
}

// checkRow compares every observable of row u across the two stores.
func (p *storePair) checkRow(u int, r *rng.Rand, target *bitset.Set) {
	t := p.t
	t.Helper()
	n := p.n
	if d, s := p.dense.count(u), p.sparse.count(u); d != s {
		t.Fatalf("n=%d count(%d): dense %d sparse %d", n, u, d, s)
	}
	var ds, ss []int
	p.dense.forEach(u, func(v int) { ds = append(ds, v) })
	p.sparse.forEach(u, func(v int) { ss = append(ss, v) })
	if !slices.Equal(ds, ss) {
		t.Fatalf("n=%d forEach(%d): dense %v sparse %v", n, u, ds, ss)
	}
	v := r.Intn(n)
	if d, s := p.dense.test(u, v), p.sparse.test(u, v); d != s {
		t.Fatalf("n=%d test(%d,%d): dense %v sparse %v", n, u, v, d, s)
	}
	if d, s := p.dense.rank(u, v), p.sparse.rank(u, v); d != s {
		t.Fatalf("n=%d rank(%d,%d): dense %d sparse %d", n, u, v, d, s)
	}
	// Exhaustive selectClear, including one-past-the-end.
	clear := n - p.dense.count(u)
	for _, k := range []int{0, clear / 2, clear - 1, clear} {
		if d, s := p.dense.selectClear(u, k), p.sparse.selectClear(u, k); d != s {
			t.Fatalf("n=%d selectClear(%d,%d): dense %d sparse %d", n, u, k, d, s)
		}
	}
	if target != nil {
		d, s := p.dense.diffCount(u, target), p.sparse.diffCount(u, target)
		if d != s {
			t.Fatalf("n=%d diffCount(%d): dense %d sparse %d", n, u, d, s)
		}
		for _, k := range []int{0, d / 2, d - 1, d} {
			if k < 0 {
				continue
			}
			dd, sd := p.dense.selectDiff(u, target, k), p.sparse.selectDiff(u, target, k)
			if dd != sd {
				t.Fatalf("n=%d selectDiff(%d,%d): dense %d sparse %d", n, u, k, dd, sd)
			}
		}
	}
	if !p.dense.row(u).Equal(p.sparse.row(u)) {
		t.Fatalf("n=%d row(%d): materialized rows differ", n, u)
	}
}

// TestRowStoreEquivalence is the lockstep property test at the storage
// layer: random insert sequences over a few rows — enough of them that rows
// climb every rung their universe has (list → bitset at n = 40 … 1100,
// list → sorted → bitset at n = ladderN, where promoteAt = 2·shortRow) —
// with every membership, ordering, rank/select, complement, and diff
// observable compared against the dense golden after each batch.
func TestRowStoreEquivalence(t *testing.T) {
	for _, n := range []int{1, 7, 40, 64, 130, 520, 1100, ladderN} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := rng.New(uint64(9000 + n))
			p := newStorePair(t, n)
			// A random diff target for the closure-style queries.
			target := bitset.New(n)
			for i := 0; i < n/2; i++ {
				target.Set(r.Intn(n))
			}
			rows := 4
			if rows > n {
				rows = n
			}
			seen := map[string]bool{}
			for step := 0; step < 700+n/4; step++ {
				u := r.Intn(rows)
				p.insert(u, r.Intn(n))
				seen[sparseForm(p.sparse, u)] = true
				if step%10 == 0 {
					p.checkRow(u, r, target)
				}
			}
			for u := 0; u < rows; u++ {
				p.checkRow(u, r, target)
			}
			if want := n >= 40; seen["bitset"] != want {
				t.Fatalf("bitset rows reached: %v, want %v", seen["bitset"], want)
			}
			if want := n == ladderN; seen["sorted"] != want {
				t.Fatalf("sorted rows reached: %v, want %v", seen["sorted"], want)
			}
			// Clones must be independent deep copies over their own lists.
			dc, sc := p.dense.clone(nil), p.sparse.clone(p.lists.clone())
			before := p.dense.count(0)
			for p.dense.count(0) == before && before < n {
				p.insert(0, r.Intn(n))
			}
			if dc.count(0) != before || sc.count(0) != before {
				t.Fatalf("clones followed the original: dense %d sparse %d, want %d", dc.count(0), sc.count(0), before)
			}
		})
	}
}

// TestRowStorePromotionBoundary walks two rows up the whole ladder one
// insert at a time — row 0 through insert, row 1 through insertAbsent only,
// the mirror half of a symmetric insert — checking every view at every size
// and that each rung is taken exactly at its threshold: list below shortRow,
// sorted from shortRow, bitset from promoteAt.
func TestRowStorePromotionBoundary(t *testing.T) {
	const n = ladderN
	p := newStorePair(t, n)
	sp := p.sparse.(*sparseRows)
	if sp.promoteAt != 2*shortRow {
		t.Fatalf("promoteAt = %d, want %d", sp.promoteAt, 2*shortRow)
	}
	r := rng.New(77)
	for size := 1; size <= sp.promoteAt+shortRow; size++ {
		v := r.Intn(n)
		for p.dense.test(0, v) {
			v = r.Intn(n)
		}
		p.insert(0, v)
		if !p.dense.insert(1, v) {
			t.Fatalf("rows 0 and 1 diverged: %d already in row 1", v)
		}
		sp.insertAbsent(1, v)
		p.lists.add(1, int32(v))
		want := "list"
		if size >= sp.promoteAt {
			want = "bitset"
		} else if size >= shortRow {
			want = "sorted"
		}
		for u := 0; u < 2; u++ {
			if got := sparseForm(p.sparse, u); got != want {
				t.Fatalf("at %d entries: row %d is a %s, want %s", size, u, got, want)
			}
			p.checkRow(u, r, nil)
		}
	}
}

// TestBackendEquivalenceUndirected drives dense, sparse, and auto graphs in
// lockstep through randomized AddEdge / AddEdgesGrouped batches, asserting
// identical accepted deltas, identical missing-view answers, identical edge
// lists, and cross-backend Equal/Clone/invariants throughout — on every
// rung of the sparse ladder (see equivCases) — and that OnBackend and Clone
// copies keep working as graphs of their own afterwards.
func TestBackendEquivalenceUndirected(t *testing.T) {
	for _, tc := range equivCases {
		n, tc := tc.n, tc
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gd := NewUndirectedOn(n, BackendDense)
			gs := NewUndirectedOn(n, BackendSparse)
			if gd.Backend() != BackendDense || gs.Backend() != BackendSparse {
				t.Fatalf("backends: %v, %v", gd.Backend(), gs.Backend())
			}
			r := rng.New(uint64(31 + n))
			qr := rng.New(uint64(97 + n))
			check := func() {
				t.Helper()
				if gd.M() != gs.M() {
					t.Fatalf("edge counts: dense %d sparse %d", gd.M(), gs.M())
				}
				u, v := qr.Intn(n), qr.Intn(n)
				if gd.HasEdge(u, v) != gs.HasEdge(u, v) {
					t.Fatalf("HasEdge(%d,%d) differs", u, v)
				}
				if gd.MissingDegree(u) != gs.MissingDegree(u) {
					t.Fatalf("MissingDegree(%d): dense %d sparse %d", u, gd.MissingDegree(u), gs.MissingDegree(u))
				}
				if md := gd.MissingDegree(u); md > 0 {
					k := qr.Intn(md)
					if a, b := gd.MissingNeighbor(u, k), gs.MissingNeighbor(u, k); a != b {
						t.Fatalf("MissingNeighbor(%d,%d): dense %d sparse %d", u, k, a, b)
					}
				}
				if !gd.Equal(gs) || !gs.Equal(gd) {
					t.Fatal("cross-backend Equal is false")
				}
				gd.CheckInvariants()
				gs.CheckInvariants()
			}
			seen := map[string]bool{}
			for step := 0; step < tc.steps; step++ {
				if step%3 == 0 {
					u, v := hubTail(r, n), r.Intn(n)
					if gd.AddEdge(u, v) != gs.AddEdge(u, v) {
						t.Fatalf("AddEdge(%d,%d) differs", u, v)
					}
				} else {
					batch := make([]Edge, 0, 8)
					for i := 0; i < 8; i++ {
						batch = append(batch, Edge{hubTail(r, n), r.Intn(n)})
					}
					ad := gd.AddEdgesGrouped(batch, nil)
					as := gs.AddEdgesGrouped(batch, nil)
					if fmt.Sprint(ad) != fmt.Sprint(as) {
						t.Fatalf("accepted deltas differ: dense %v sparse %v", ad, as)
					}
				}
				if n < ladderN || step%8 == 0 { // check() is Θ(n + m)
					check()
				}
				seen[sparseForm(gs.rows, 0)] = true
			}
			for _, f := range tc.forms {
				if !seen[f] {
					t.Fatalf("row 0 was never a %s row (saw %v)", f, seen)
				}
			}
			if fmt.Sprint(gd.Edges()) != fmt.Sprint(gs.Edges()) {
				t.Fatal("Edges() listings differ")
			}
			// Conversion round-trips preserve adjacency order exactly.
			conv := gd.OnBackend(BackendSparse)
			for u := 0; u < n; u++ {
				if fmt.Sprint(gd.Neighbors(u, nil)) != fmt.Sprint(conv.Neighbors(u, nil)) {
					t.Fatalf("OnBackend changed adjacency order at %d", u)
				}
			}
			cl := gs.Clone()
			if cl.Backend() != BackendSparse {
				t.Fatalf("Clone of a sparse graph is on %v", cl.Backend())
			}
			// The copies are graphs of their own: their stores must read
			// their own lists, through further inserts, and leave gs alone.
			frozen := gs.Edges()
			for step := 0; step < 40; step++ {
				u, v := hubTail(r, n), r.Intn(n)
				want := gd.AddEdge(u, v)
				if conv.AddEdge(u, v) != want || cl.AddEdge(u, v) != want {
					t.Fatalf("AddEdge(%d,%d) on a copy differs from dense %v", u, v, want)
				}
			}
			for name, c := range map[string]*Undirected{"OnBackend": conv, "Clone": cl} {
				c.CheckInvariants()
				if !c.Equal(gd) || !gd.Equal(c) {
					t.Fatalf("%s copy diverged from dense after further AddEdges", name)
				}
			}
			if fmt.Sprint(gs.Edges()) != fmt.Sprint(frozen) {
				t.Fatal("inserting into the copies changed the original")
			}
		})
	}
}

// TestBackendEquivalenceDirected is the directed lockstep: AddArc /
// AddArcsGrouped batches, missing-out views, and the dense-phase diff
// queries (RowDiffCount / RowSelectDiff) against a closure-style target, over
// the same universes and with the same copy checks as the undirected test.
func TestBackendEquivalenceDirected(t *testing.T) {
	for _, tc := range equivCases {
		n, tc := tc.n, tc
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gd := NewDirectedOn(n, BackendDense)
			gs := NewDirectedOn(n, BackendSparse)
			r := rng.New(uint64(131 + n))
			qr := rng.New(uint64(177 + n))
			target := bitset.New(n)
			for i := 0; i < n; i++ {
				if qr.Bool() {
					target.Set(i)
				}
			}
			check := func() {
				t.Helper()
				if gd.M() != gs.M() {
					t.Fatalf("arc counts: dense %d sparse %d", gd.M(), gs.M())
				}
				u := qr.Intn(n)
				dc, sc := gd.RowDiffCount(u, target), gs.RowDiffCount(u, target)
				if dc != sc {
					t.Fatalf("RowDiffCount(%d): dense %d sparse %d", u, dc, sc)
				}
				for _, k := range []int{0, dc - 1, dc} {
					if k < 0 {
						continue
					}
					if a, b := gd.RowSelectDiff(u, target, k), gs.RowSelectDiff(u, target, k); a != b {
						t.Fatalf("RowSelectDiff(%d,%d): dense %d sparse %d", u, k, a, b)
					}
				}
				if !gd.Equal(gs) {
					t.Fatal("cross-backend Equal is false")
				}
				gd.CheckInvariants()
				gs.CheckInvariants()
			}
			seen := map[string]bool{}
			for step := 0; step < tc.steps; step++ {
				if step%3 == 0 {
					u, v := hubTail(r, n), r.Intn(n)
					if gd.AddArc(u, v) != gs.AddArc(u, v) {
						t.Fatalf("AddArc(%d,%d) differs", u, v)
					}
				} else {
					batch := make([]Arc, 0, 8)
					for i := 0; i < 8; i++ {
						batch = append(batch, Arc{hubTail(r, n), r.Intn(n)})
					}
					ad := gd.AddArcsGrouped(batch, nil)
					as := gs.AddArcsGrouped(batch, nil)
					if fmt.Sprint(ad) != fmt.Sprint(as) {
						t.Fatalf("accepted deltas differ: dense %v sparse %v", ad, as)
					}
				}
				if n < ladderN || step%8 == 0 { // check() is Θ(n + m)
					check()
				}
				seen[sparseForm(gs.rows, 0)] = true
			}
			for _, f := range tc.forms {
				if !seen[f] {
					t.Fatalf("row 0 was never a %s row (saw %v)", f, seen)
				}
			}
			if fmt.Sprint(gd.Arcs()) != fmt.Sprint(gs.Arcs()) {
				t.Fatal("Arcs() listings differ")
			}
			if gd.IsClosed() != gs.IsClosed() {
				t.Fatal("IsClosed differs")
			}
			if !gd.Underlying().Equal(gs.Underlying()) {
				t.Fatal("Underlying graphs differ")
			}
			conv := gd.OnBackend(BackendSparse)
			for u := 0; u < n; u++ {
				if fmt.Sprint(gd.OutNeighbors(u, nil)) != fmt.Sprint(conv.OutNeighbors(u, nil)) {
					t.Fatalf("OnBackend changed out-list order at %d", u)
				}
			}
			if back := gs.OnBackend(BackendDense); !back.Equal(gd) {
				t.Fatal("sparse → dense conversion lost arcs")
			}
			cl := gs.Clone()
			frozen := gs.Arcs()
			for step := 0; step < 40; step++ {
				u, v := hubTail(r, n), r.Intn(n)
				want := gd.AddArc(u, v)
				if conv.AddArc(u, v) != want || cl.AddArc(u, v) != want {
					t.Fatalf("AddArc(%d,%d) on a copy differs from dense %v", u, v, want)
				}
			}
			for name, c := range map[string]*Directed{"OnBackend": conv, "Clone": cl} {
				c.CheckInvariants()
				if !c.Equal(gd) || !gd.Equal(c) {
					t.Fatalf("%s copy diverged from dense after further AddArcs", name)
				}
			}
			if fmt.Sprint(gs.Arcs()) != fmt.Sprint(frozen) {
				t.Fatal("inserting into the copies changed the original")
			}
		})
	}
}

// TestBackendAutoResolution pins the auto cutoff contract.
func TestBackendAutoResolution(t *testing.T) {
	if g := NewUndirectedOn(64, BackendAuto); g.Backend() != BackendDense {
		t.Fatalf("auto at n=64 resolved to %v", g.Backend())
	}
	if g := NewUndirectedOn(AutoDenseLimit+1, BackendAuto); g.Backend() != BackendSparse {
		t.Fatalf("auto at n=%d resolved to %v", AutoDenseLimit+1, g.Backend())
	}
	if g := NewDirectedOn(AutoDenseLimit+1, BackendAuto); g.Backend() != BackendSparse {
		t.Fatalf("directed auto at n=%d resolved to %v", AutoDenseLimit+1, g.Backend())
	}
	for _, s := range []string{"dense", "sparse", "auto"} {
		b, err := ParseBackend(s)
		if err != nil || b.String() != s {
			t.Fatalf("ParseBackend(%q) = %v, %v", s, b, err)
		}
	}
	if _, err := ParseBackend("nope"); err == nil {
		t.Fatal("ParseBackend accepted junk")
	}
}

// TestSparseShortRowAddEdgeAllocs pins what a short list costs: below
// shortRow entries the sparse store keeps nothing of its own and the list
// is a block of the pool, so an AddEdge allocates nothing unless the pool
// adds a page — not when the hub's list moves to a bigger block, nor for a
// fresh leaf's first entry — and never for the row.
func TestSparseShortRowAddEdgeAllocs(t *testing.T) {
	g := NewUndirectedOn(ladderN, BackendSparse)
	next, added := 1, 0
	add := func() {
		before := len(g.adj.pages)
		if !g.AddEdge(0, next) {
			t.Fatalf("AddEdge(0,%d) not new", next)
		}
		added = len(g.adj.pages) - before
		next++
	}
	// AllocsPerRun(1, add) adds two edges and measures the second. No page
	// is released here, so len(pages) counts the pages made; making one may
	// also grow the page index.
	for next+2 < shortRow {
		allocs := int(testing.AllocsPerRun(1, add))
		if added == 0 && allocs != 0 || allocs > 2*added {
			t.Fatalf("AddEdge at %d entries: %d allocations, %d pages added", next-2, allocs, added)
		}
	}
	if len(g.adj.idle) != 0 {
		t.Fatalf("%d pages released", len(g.adj.idle))
	}
	if f := sparseForm(g.rows, 0); f != "list" {
		t.Fatalf("hub row with %d entries is a %s row", g.Degree(0), f)
	}
}
