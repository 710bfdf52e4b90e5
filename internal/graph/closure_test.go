package graph_test

import (
	"fmt"
	"runtime"
	"testing"

	"gossipdisc/internal/bitset"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// oracleDigraph draws a random digraph on n nodes of one of three shapes:
// DAG-heavy (arcs forward along a random order, rarely one back), cycle-heavy
// (random cycles over random node subsets) and uniform with explicit
// self-arc attempts.
func oracleDigraph(r *rng.Rand, n, shape int) *graph.Directed {
	g := graph.NewDirected(n)
	if n == 0 {
		return g
	}
	switch shape {
	case 0:
		perm := r.Perm(n)
		for i := 0; i < 2*n; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a > b {
				a, b = b, a
			}
			g.AddArc(perm[a], perm[b])
		}
		if r.Intn(4) == 0 {
			g.AddArc(r.Intn(n), r.Intn(n))
		}
	case 1:
		for c := 1 + r.Intn(4); c > 0; c-- {
			cyc := r.Perm(n)[:1+r.Intn(n)]
			for i, u := range cyc {
				g.AddArc(u, cyc[(i+1)%len(cyc)])
			}
		}
		for i := r.Intn(n); i > 0; i-- {
			g.AddArc(r.Intn(n), r.Intn(n))
		}
	default:
		for i := r.Intn(3 * n); i > 0; i-- {
			u := r.Intn(n)
			g.AddArc(u, u)
			g.AddArc(u, r.Intn(n))
		}
	}
	return g
}

// TestClosureOracle holds every reader of the condensation pass to
// references that share none of its code: per-node ReachableFrom for the
// closure rows, arc membership for IsClosed, and mutual reachability for
// the components.
func TestClosureOracle(t *testing.T) {
	r := rng.New(29)
	for n := 0; n <= 40; n++ {
		for shape := 0; shape < 3; shape++ {
			for trial := 0; trial < 6; trial++ {
				dense := oracleDigraph(r, n, shape)
				for _, g := range []*graph.Directed{dense, dense.OnBackend(graph.BackendSparse)} {
					name := fmt.Sprintf("n=%d/shape=%d/trial=%d/%v", n, shape, trial, g.Backend())
					checkClosureOracle(t, name, g)
					// The graph of its own closure rows must be closed.
					h := graph.NewDirectedOn(n, g.Backend())
					for u, row := range g.TransitiveClosure() {
						row.ForEach(func(v int) { h.AddArc(u, v) })
					}
					checkClosureOracle(t, name+"/closed", h)
					if !h.IsClosed() {
						t.Fatalf("%s: the closure graph is not closed", name)
					}
				}
			}
		}
	}
}

func checkClosureOracle(t *testing.T, name string, g *graph.Directed) {
	t.Helper()
	n := g.N()
	reach := make([]*bitset.Set, n)
	arcs, closed, strong := 0, true, true
	rows := g.TransitiveClosure()
	for u := 0; u < n; u++ {
		reach[u] = g.ReachableFrom(u)
		strong = strong && reach[u].Count() == n
		want := reach[u].Clone()
		want.Clear(u)
		if !rows[u].Equal(want) {
			t.Fatalf("%s: closure row %d = %v, want %v", name, u, rows[u], want)
		}
		arcs += want.Count()
		want.ForEach(func(v int) { closed = closed && g.HasArc(u, v) })
	}
	comps := 0
	for u := 0; u < n; u++ {
		root := u // the smallest node mutually reachable with u
		for v := 0; v < u && root == u; v++ {
			if reach[u].Test(v) && reach[v].Test(u) {
				root = v
			}
		}
		if root == u {
			comps++
		}
	}
	if got := g.ClosureArcCount(); got != arcs {
		t.Fatalf("%s: ClosureArcCount %d, want %d", name, got, arcs)
	}
	if got := g.IsClosed(); got != closed {
		t.Fatalf("%s: IsClosed %v, want %v", name, got, closed)
	}
	if got := g.CondensationSize(); got != comps {
		t.Fatalf("%s: CondensationSize %d, want %d", name, got, comps)
	}
	if got := g.IsStronglyConnected(); got != strong {
		t.Fatalf("%s: IsStronglyConnected %v, want %v", name, got, strong)
	}
	comp, rs := g.Condensation()
	if len(rs) != comps {
		t.Fatalf("%s: Condensation has %d rows, want %d", name, len(rs), comps)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(u, nil) {
			if comp[v] > comp[u] {
				t.Fatalf("%s: arc %d→%d enters a later component (%d > %d)", name, u, v, comp[v], comp[u])
			}
		}
		for v := 0; v < n; v++ {
			if mutual := reach[u].Test(v) && reach[v].Test(u); mutual != (comp[u] == comp[v]) {
				t.Fatalf("%s: nodes %d, %d mutually reachable %v but components %d, %d", name, u, v, mutual, comp[u], comp[v])
			}
		}
	}
}

// TestCondensationDeepPath: a 200 000-node path is 200 000 components and a
// DFS path as deep, so the pass must not recurse.
func TestCondensationDeepPath(t *testing.T) {
	g := gen.DirectedPath(200_000, graph.BackendSparse)
	if got := g.CondensationSize(); got != 200_000 {
		t.Fatalf("CondensationSize %d, want 200000", got)
	}
	if g.IsStronglyConnected() {
		t.Fatal("a path is strongly connected")
	}
}

// TestIsStronglyConnectedSparseAllocs: on the sparse backend the check costs
// O(n) words, not a dense reverse graph of n² bits (302 MiB here).
func TestIsStronglyConnectedSparseAllocs(t *testing.T) {
	g := gen.DirectedCycle(50_000, graph.BackendSparse)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	strong := g.IsStronglyConnected()
	runtime.ReadMemStats(&after)
	if !strong {
		t.Fatal("a cycle is not strongly connected")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("IsStronglyConnected allocated %d MiB, want < 16", grew>>20)
	}
}
