package graph

import (
	"slices"
	"testing"

	"gossipdisc/internal/rng"
)

// undirectedDraws records every sampling read of g over all its nodes on
// one stream seeded seed: RandomNeighbor and RandomNeighborPair node by
// node, then RandomNeighborPairs and TwoHopWalks over ragged blocks without
// a mask and under alive, then the stream's next draw.
func undirectedDraws(g *Undirected, alive []bool, seed uint64) []int {
	r := rng.New(seed)
	var out []int
	for u := range g.N() {
		v, w := g.RandomNeighborPair(u, r)
		out = append(out, g.RandomNeighbor(u, r), v, w)
	}
	var vs, ws [37]int32
	for _, mask := range [][]bool{nil, alive} {
		for lo := 0; lo < g.N(); lo += len(vs) {
			b := min(len(vs), g.N()-lo)
			g.RandomNeighborPairs(lo, mask, r, vs[:b], ws[:b])
			for k := range b {
				out = append(out, int(vs[k]), int(ws[k]))
			}
			g.TwoHopWalks(lo, mask, r, ws[:b])
			for _, w := range ws[:b] {
				out = append(out, int(w))
			}
		}
	}
	return append(out, r.Intn(1<<30))
}

// directedDraws is undirectedDraws for a digraph: RandomOutNeighbor node by
// node, then TwoHopWalks over ragged blocks.
func directedDraws(g *Directed, seed uint64) []int {
	r := rng.New(seed)
	var out []int
	for u := range g.N() {
		out = append(out, g.RandomOutNeighbor(u, r))
	}
	var ws [37]int32
	for lo := 0; lo < g.N(); lo += len(ws) {
		b := min(len(ws), g.N()-lo)
		g.TwoHopWalks(lo, r, ws[:b])
		for _, w := range ws[:b] {
			out = append(out, int(w))
		}
	}
	return append(out, r.Intn(1<<30))
}

// frozenEdges is the commit batch of step k of a frozen window over n
// nodes: two new partners each for nodes 1, 2 and 3, and 120 random edges
// drawn from r.
func frozenEdges(n, k int, r *rng.Rand) []Edge {
	var batch []Edge
	for u := 1; u <= 3; u++ {
		batch = append(batch, Edge{u, n - 1 - 2*k}, Edge{u, n - 2 - 2*k})
	}
	for range 120 {
		batch = append(batch, Edge{r.Intn(n), r.Intn(n)})
	}
	return batch
}

// frozenStart gives node 1 a full 4-entry block, node 2 a full 8-entry
// one and node 3 one entry short of shortRow, so that the first commits of
// a frozen window move the first two to bigger blocks and the third to a
// Go slice; add inserts one edge or arc.
func frozenStart(degree func(u int) int, add func(u, v int) bool) {
	for u, d := range []int{1: 4, 2: 8, 3: shortRow - 1} {
		for v := 10; degree(u) < d; v++ {
			add(u, v)
		}
	}
}

// TestFrozenViewMatchesClone: between Freeze and Thaw, grouped commits
// leave every sampling read — per node, in blocks, masked and not — drawing
// exactly what it draws on a Clone taken at Freeze, on both backends, while
// lists change pool block and cross shortRow inside the window; Thaw lets
// the reads see the live lists again.
func TestFrozenViewMatchesClone(t *testing.T) {
	const n, steps = 300, 4
	alive := blockTestMasks(n)["some-dead"]
	for _, b := range []Backend{BackendDense, BackendSparse} {
		g, d := NewUndirectedOn(n, b), NewDirectedOn(n, b)
		build := rng.New(11)
		for range 2 * n {
			u, v := 10+build.Intn(n-10), 10+build.Intn(n-10)
			g.AddEdge(u, v)
			d.AddArc(u, v)
		}
		frozenStart(g.Degree, g.AddEdge)
		frozenStart(d.OutDegree, d.AddArc)
		gc, dc := g.Clone(), d.Clone()
		wantG, wantD := undirectedDraws(gc, alive, 5), directedDraws(dc, 6)
		g.Freeze()
		d.Freeze()
		commits := rng.New(12)
		for k := range steps {
			batch := frozenEdges(n, k, commits)
			g.AddEdgesGrouped(batch, nil)
			arcs := make([]Arc, len(batch))
			for i, e := range batch {
				arcs[i] = Arc{e.U, e.V}
			}
			d.AddArcsGrouped(arcs, nil)
			if got := undirectedDraws(g, alive, 5); !slices.Equal(got, wantG) {
				t.Fatalf("%s: undirected draws after frozen commit %d differ from the clone's", b, k)
			}
			if got := directedDraws(d, 6); !slices.Equal(got, wantD) {
				t.Fatalf("%s: directed draws after frozen commit %d differ from the clone's", b, k)
			}
		}
		for _, lens := range [][2]func(int) int{{g.Degree, gc.Degree}, {d.OutDegree, dc.OutDegree}} {
			if lens[0](1) <= 4 || lens[0](2) <= 8 || lens[0](3) < shortRow || lens[1](3) != shortRow-1 {
				t.Fatalf("%s: window grew nodes 1–3 to %d, %d, %d from %d, %d, %d", b,
					lens[0](1), lens[0](2), lens[0](3), lens[1](1), lens[1](2), lens[1](3))
			}
		}
		if b == BackendSparse && (g.adj.spans[1].at == gc.adj.spans[1].at || d.out.spans[2].at == dc.out.spans[2].at) {
			t.Fatalf("%s: a full block kept its address through its list's growth", b)
		}
		g.Thaw()
		d.Thaw()
		got, live := undirectedDraws(g, alive, 5), undirectedDraws(g.Clone(), alive, 5)
		if !slices.Equal(got, live) || slices.Equal(got, wantG) {
			t.Fatalf("%s: undirected draws after Thaw are not the live graph's", b)
		}
		if got, live := directedDraws(d, 6), directedDraws(d.Clone(), 6); !slices.Equal(got, live) || slices.Equal(got, wantD) {
			t.Fatalf("%s: directed draws after Thaw are not the live graph's", b)
		}
		g.CheckInvariants()
		d.CheckInvariants()
	}
}
