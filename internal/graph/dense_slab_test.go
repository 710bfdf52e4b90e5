package graph

import (
	"fmt"
	"testing"

	"gossipdisc/internal/rng"
)

// The dense store keeps every row in one slab. These tests hold what the
// per-row layout gave for free: a row handed out is the live row, rows do
// not bleed into each other at any alignment of n against the word size,
// copies share nothing, and the commit loops that index the slab directly
// reject and deduplicate exactly as before.

var slabSizes = []int{1, 63, 64, 65, 130}

// halfFilled returns a dense graph with roughly half its pairs present.
func halfFilled(n int) *Undirected {
	g := NewUndirected(n)
	r := rng.New(uint64(n))
	for k := 0; k < n*n/4; k++ {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

// missingEdge returns a pair not yet adjacent in g, or false on K_n.
func missingEdge(g *Undirected) (Edge, bool) {
	for u := 0; u < g.N(); u++ {
		if g.MissingDegree(u) > 0 {
			return Edge{U: u, V: g.MissingNeighbor(u, 0)}, true
		}
	}
	return Edge{}, false
}

func panicMessage(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

func TestDenseSlabRowIsLive(t *testing.T) {
	for _, n := range slabSizes {
		g := halfFilled(n)
		e, ok := missingEdge(g)
		if !ok {
			continue // n = 1 has no pair
		}
		ru, rv := g.NeighborRow(e.U), g.NeighborRow(e.V)
		if ru.Test(e.V) || rv.Test(e.U) {
			t.Fatalf("n=%d: rows already hold the missing edge %v", n, e)
		}
		if got := g.AddEdgesGrouped([]Edge{e}, nil); len(got) != 1 {
			t.Fatalf("n=%d: missing edge %v not accepted", n, e)
		}
		if !ru.Test(e.V) || !rv.Test(e.U) {
			t.Fatalf("n=%d: rows fetched before the commit do not show %v", n, e)
		}
		if ru != g.NeighborRow(e.U) {
			t.Fatalf("n=%d: NeighborRow returned a different set the second time", n)
		}
		g.CheckInvariants()
	}
}

func TestDenseSlabRowsDoNotOverlap(t *testing.T) {
	for _, n := range slabSizes {
		g := NewUndirected(n)
		dr := g.rows.(*denseRows)
		if len(dr.slab) != n*dr.stride || len(dr.rows) != n {
			t.Fatalf("n=%d: slab of %d words, %d views, stride %d", n, len(dr.slab), len(dr.rows), dr.stride)
		}
		for u := 0; u < n; u++ {
			if dr.rows[u].Words() != dr.stride {
				t.Fatalf("n=%d: row %d views %d words, stride %d", n, u, dr.rows[u].Words(), dr.stride)
			}
			// Fill row u's last word whole, tail bits past n included.
			dr.rows[u].OrWord(dr.stride-1, ^uint64(0))
			for w := 0; w < n; w++ {
				if w != u && dr.rows[w].Any() {
					t.Fatalf("n=%d: writing row %d's last word set bits in row %d", n, u, w)
				}
			}
			if msg := panicMessage(func() { dr.rows[u].OrWord(dr.stride, 1) }); msg == nil {
				t.Fatalf("n=%d: row %d accepted a word index past its own words", n, u)
			}
			dr.rows[u].Reset()
		}
	}
}

func TestDenseSlabCopiesAreDeep(t *testing.T) {
	for _, n := range slabSizes {
		g := halfFilled(n)
		ref := g.OnBackend(BackendSparse) // shares no dense storage by construction
		e, ok := missingEdge(g)
		for name, c := range map[string]*Undirected{"Clone": g.Clone(), "OnBackend": g.OnBackend(BackendDense)} {
			if !c.Equal(g) {
				t.Fatalf("n=%d %s: copy differs from the original", n, name)
			}
			if ok {
				c.AddEdgesGrouped([]Edge{e}, nil)
				c.CheckInvariants()
				if !c.HasEdge(e.U, e.V) || g.HasEdge(e.U, e.V) {
					t.Fatalf("n=%d %s: edge %v added to the copy: copy has it %v, original has it %v",
						n, name, e, c.HasEdge(e.U, e.V), g.HasEdge(e.U, e.V))
				}
			}
			if !g.Equal(ref) {
				t.Fatalf("n=%d %s: mutating the copy changed the original", n, name)
			}
			g.CheckInvariants()
		}

		d := NewDirected(n)
		for _, e := range g.Edges() {
			d.AddArc(e.U, e.V)
		}
		dref := d.OnBackend(BackendSparse)
		for name, c := range map[string]*Directed{"Clone": d.Clone(), "OnBackend": d.OnBackend(BackendDense)} {
			if ok {
				// halfFilled stores U < V arcs only, so V → U is absent.
				if got := c.AddArcsGrouped([]Arc{{U: n - 1, V: 0}}, nil); len(got) != 1 || d.HasArc(n-1, 0) {
					t.Fatalf("n=%d directed %s: arc into the copy accepted %d, original has it %v",
						n, name, len(got), d.HasArc(n-1, 0))
				}
				c.CheckInvariants()
			}
			if !d.Equal(dref) {
				t.Fatalf("n=%d directed %s: mutating the copy changed the original", n, name)
			}
			d.CheckInvariants()
		}
	}
}

func TestDenseSlabCommitRejectsAndDeduplicates(t *testing.T) {
	for _, n := range slabSizes {
		g := NewUndirected(n)
		d := NewDirected(n)
		for _, bad := range [][2]int{{0, n}, {n, 0}, {-1, 0}, {0, n + 63}} {
			want := fmt.Sprintf("graph: edge {%d, %d} out of range [0,%d)", bad[0], bad[1], n)
			if msg := panicMessage(func() { g.AddEdgesGrouped([]Edge{{U: bad[0], V: bad[1]}}, nil) }); msg != want {
				t.Fatalf("n=%d: AddEdgesGrouped(%v) panicked with %v, want %q", n, bad, msg, want)
			}
			want = fmt.Sprintf("graph: arc (%d, %d) out of range [0,%d)", bad[0], bad[1], n)
			if msg := panicMessage(func() { d.AddArcsGrouped([]Arc{{U: bad[0], V: bad[1]}}, nil) }); msg != want {
				t.Fatalf("n=%d: AddArcsGrouped(%v) panicked with %v, want %q", n, bad, msg, want)
			}
		}
		if n < 2 {
			continue
		}
		// The last pair sits in the last word of the first and last rows.
		u, v := 0, n-1
		got := g.AddEdgesGrouped([]Edge{{u, v}, {v, u}, {u, u}, {u, v}}, nil)
		if len(got) != 1 || got[0] != (Edge{u, v}) || g.M() != 1 || g.Degree(u) != 1 || g.Degree(v) != 1 {
			t.Fatalf("n=%d: in-batch duplicates of {%d, %d} accepted as %v, m=%d", n, u, v, got, g.M())
		}
		if again := g.AddEdgesGrouped([]Edge{{v, u}}, nil); len(again) != 0 {
			t.Fatalf("n=%d: an edge of the previous batch accepted again: %v", n, again)
		}
		g.CheckInvariants()
		arcs := d.AddArcsGrouped([]Arc{{u, v}, {u, v}, {v, v}, {v, u}}, nil)
		if len(arcs) != 2 || arcs[0] != (Arc{u, v}) || arcs[1] != (Arc{v, u}) || d.M() != 2 {
			t.Fatalf("n=%d: in-batch duplicate arcs accepted as %v, m=%d", n, arcs, d.M())
		}
		d.CheckInvariants()
	}
}
