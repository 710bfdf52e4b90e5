package graph_test

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

// TestSparseRowIndexIsLazy: a sparse graph whose rows all stay below
// shortRow keeps no row index — not after a generator builds it, a push run
// grows it, or it is cloned or copied onto the sparse backend — and the
// first row to reach shortRow allocates it. At n = 64·shortRow the sorted
// form sits between list and bitset, so shortRow is the ladder's first step.
func TestSparseRowIndexIsLazy(t *testing.T) {
	const n = 64 * graph.ShortRow
	g := gen.Cycle(n, graph.BackendSparse)
	if graph.RowIndexed(g) {
		t.Fatal("cycle allocated the row index")
	}
	if res := sim.NewSession(g, core.Push{}, rng.New(1), sim.Config{MaxRounds: 10}).Run(); res.Rounds != 10 {
		t.Fatalf("push ran %d rounds, want 10", res.Rounds)
	}
	maxDeg := 0
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	if maxDeg >= graph.ShortRow {
		t.Fatalf("a row reached %d entries; the run must leave every row short", maxDeg)
	}
	if graph.RowIndexed(g) {
		t.Fatal("push run allocated the row index")
	}
	if graph.RowIndexed(g.Clone()) || graph.RowIndexed(g.OnBackend(graph.BackendSparse)) {
		t.Fatal("copy allocated the row index")
	}

	// Grow row 0 one entry at a time: the index appears with its first long row.
	for v := 1; g.Degree(0) < graph.ShortRow; v++ {
		if graph.RowIndexed(g) {
			t.Fatalf("row index allocated at degree %d", g.Degree(0))
		}
		g.AddEdge(0, v)
	}
	if !graph.RowIndexed(g) {
		t.Fatalf("row 0 reached %d entries without allocating the row index", g.Degree(0))
	}
	g.CheckInvariants()
}

// TestSparseCycleBuildAllocs: a sparse build allocates per page of the
// list pool, not per node.
func TestSparseCycleBuildAllocs(t *testing.T) {
	var g *graph.Undirected
	allocs := testing.AllocsPerRun(1, func() { g = gen.Cycle(100_000, graph.BackendSparse) })
	pages := graph.Pages(g)
	if pages == 0 || allocs > float64(2*pages+16) {
		t.Fatalf("building the cycle made %v allocations over %d pages", allocs, pages)
	}
	g.CheckInvariants()
}
