package graph

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gossipdisc/internal/rng"
)

func pathGraph(n int) *Undirected {
	g := NewUndirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func completeGraph(n int) *Undirected {
	g := NewUndirected(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := NewUndirected(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("new edge reported as duplicate")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("reversed duplicate reported as new")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop reported as new")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge membership not symmetric")
	}
	if g.HasEdge(0, 0) {
		t.Fatal("HasEdge(u,u) true")
	}
	if g.HasEdge(2, 3) {
		t.Fatal("phantom edge")
	}
	g.CheckInvariants()
}

// TestNodeRangePanics: node ids and list indices are fenced on both
// backends. Node 0's list is a pooled block with spare slots on the sparse
// backend, and node 1's list sits directly behind it in the same page, so a
// read one past the end must panic rather than return either.
func TestNodeRangePanics(t *testing.T) {
	for _, b := range []Backend{BackendDense, BackendSparse} {
		g := NewUndirectedOn(3, b)
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		if b == BackendSparse {
			s0, s1 := g.adj.spans[0], g.adj.spans[1]
			if s1.at != s0.at+1<<minOrder || s0.at>>pageBits != s1.at>>pageBits {
				t.Fatalf("list 1 at %d is not directly behind list 0 at %d", s1.at, s0.at)
			}
			if l := g.adj.list(0); len(l) != 1 || cap(l) != 1 {
				t.Fatalf("list 0 has len %d cap %d, want 1 and 1", len(l), cap(l))
			}
		}
		for _, f := range []func(){
			func() { g.AddEdge(0, 3) },
			func() { g.AddEdge(-1, 0) },
			func() { g.HasEdge(3, 0) },
			func() { g.Degree(3) },
			func() { g.Neighbor(0, g.Degree(0)) },
			func() { g.Neighbor(1, g.Degree(1)) },
			func() { g.Neighbor(2, -1) },
			func() { g.Neighbor(3, 0) },
			func() { g.TouchActs([]ActDraw{{U: 3}}, false) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v: expected panic", b)
					}
				}()
				f()
			}()
		}
	}
}

// TestTouchActsReadsOnly: on both backends, with isolated nodes, short
// lists and lists past shortRow, pairs and walks of any raw words — more
// of them than one stage holds — leave the graph as it was and allocate
// nothing.
func TestTouchActsReadsOnly(t *testing.T) {
	r := rng.New(5)
	for _, b := range []Backend{BackendDense, BackendSparse} {
		g := NewUndirectedOn(300, b)
		for v := 1; v < 200; v++ {
			g.AddEdge(0, v)
			g.AddEdge(v, v%50+1)
		}
		want := g.Clone()
		acts := make([]ActDraw, 101)
		for i := range acts {
			acts[i] = ActDraw{U: r.Intn(g.N()), X: r.Uint64(), Y: r.Uint64()}
		}
		acts[0], acts[1] = ActDraw{U: 0, X: math.MaxUint64, Y: 0}, ActDraw{U: 299, X: 1, Y: 2}
		for _, walk := range []bool{false, true} {
			if allocs := testing.AllocsPerRun(10, func() { g.TouchActs(acts, walk) }); allocs != 0 {
				t.Errorf("%v walk=%v: TouchActs allocates %v", b, walk, allocs)
			}
		}
		if !g.Equal(want) || g.M() != want.M() {
			t.Fatalf("%v: TouchActs changed the graph", b)
		}
	}
}

// TestNodeCountLimit: a graph of more than math.MaxInt32 nodes is refused
// before anything is allocated for it, on every backend.
func TestNodeCountLimit(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a 32-bit int cannot exceed math.MaxInt32")
	}
	n := math.MaxInt32
	n++
	for _, b := range []Backend{BackendDense, BackendSparse, BackendAuto} {
		for _, build := range []func(){
			func() { NewUndirectedOn(n, b) },
			func() { NewDirectedOn(n, b) },
		} {
			func() {
				defer func() {
					if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "node count") {
						t.Fatalf("%v: got panic %v, want the node limit", b, p)
					}
				}()
				build()
			}()
		}
	}
}

func TestDegreesAndHistogram(t *testing.T) {
	g := pathGraph(5) // degrees 1,2,2,2,1
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(2))
	}
	if g.MinDegree() != 1 || g.MaxDegree() != 2 {
		t.Fatalf("min/max %d/%d", g.MinDegree(), g.MaxDegree())
	}
	h := g.DegreeHistogram()
	if h[1] != 2 || h[2] != 3 {
		t.Fatalf("histogram %v", h)
	}
}

func TestCompleteAndMissing(t *testing.T) {
	g := completeGraph(6)
	if !g.IsComplete() {
		t.Fatal("K6 not complete")
	}
	if g.MissingEdges() != 0 {
		t.Fatalf("missing %d", g.MissingEdges())
	}
	p := pathGraph(6)
	if p.IsComplete() {
		t.Fatal("path complete")
	}
	if p.MissingEdges() != 15-5 {
		t.Fatalf("missing %d want 10", p.MissingEdges())
	}
}

func TestRandomNeighborUniform(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	r := rng.New(1)
	counts := map[int]int{}
	const draws = 30000
	for i := 0; i < draws; i++ {
		counts[g.RandomNeighbor(0, r)]++
	}
	for v := 1; v <= 3; v++ {
		rate := float64(counts[v]) / draws
		if rate < 0.30 || rate > 0.37 {
			t.Fatalf("neighbor %d rate %.3f", v, rate)
		}
	}
	iso := NewUndirected(2)
	if iso.RandomNeighbor(0, r) != -1 {
		t.Fatal("isolated node returned a neighbor")
	}
}

func TestRandomNeighborPairWithReplacement(t *testing.T) {
	g := NewUndirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	r := rng.New(2)
	same := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		a, b := g.RandomNeighborPair(0, r)
		if a == -1 || b == -1 {
			t.Fatal("pair from non-isolated node returned -1")
		}
		if a == b {
			same++
		}
	}
	rate := float64(same) / draws
	// With replacement over 2 neighbors: P(same) = 1/2.
	if rate < 0.47 || rate > 0.53 {
		t.Fatalf("pair collision rate %.3f want ~0.5", rate)
	}
	iso := NewUndirected(1)
	if a, b := iso.RandomNeighborPair(0, r); a != -1 || b != -1 {
		t.Fatal("isolated pair not (-1,-1)")
	}
}

// blockTestMasks are the liveness masks the block primitives' tests run
// under, on graphs of n = 140 nodes: none; all alive; and one with every
// fourth node dead plus the all-dead run [63, 98), which holds whole
// blocks of every tested width starting at lo = 63.
func blockTestMasks(n int) map[string][]bool {
	all, some := make([]bool, n), make([]bool, n)
	for u := range n {
		all[u] = true
		some[u] = u%4 != 1 && (u < 63 || u >= 98)
	}
	return map[string][]bool{"nil": nil, "all-alive": all, "some-dead": some}
}

// TestRandomNeighborPairsMatchesPair: the block draw is the per-node draw
// gated by the mask — same pairs, -1s for isolated and dead nodes included,
// same stream state — at every block position, on both backends, and it
// checks both ends of the block and the mask against the graph. (core's
// TestPushActRangeMatchesAct and TestCrashedActRangeMatchesAct hold the
// acts built on it to Push.Act and Crashed.Act.)
func TestRandomNeighborPairsMatchesPair(t *testing.T) {
	const n = 140
	for _, backend := range []Backend{BackendDense, BackendSparse} {
		g := NewUndirectedOn(n, backend)
		build := rng.New(3)
		for k := 0; k < 3*n; k++ {
			if u, v := build.Intn(n), build.Intn(n); u%9 != 0 && v%9 != 0 {
				g.AddEdge(u, v) // nodes 0, 9, …, 135 stay isolated
			}
		}
		for name, alive := range blockTestMasks(n) {
			deadDrawers := 0
			for lo := 0; lo < n; lo += 7 {
				for _, width := range []int{0, 1, 31, 32, 33, 100, n - lo} {
					width = min(width, n-lo)
					a := rng.New(uint64(lo + width))
					b := *a
					vs, ws := make([]int32, width), make([]int32, width+2)
					g.RandomNeighborPairs(lo, alive, a, vs, ws)
					for k := 0; k < width; k++ {
						u, v, w := lo+k, -1, -1
						if alive == nil || alive[u] {
							v, w = g.RandomNeighborPair(u, &b)
						} else if g.Degree(u) > 0 {
							deadDrawers++
						}
						if int(vs[k]) != v || int(ws[k]) != w {
							t.Fatalf("%s/%s block at %d: node %d drew (%d, %d), per-node (%d, %d)", backend, name, lo, u, vs[k], ws[k], v, w)
						}
					}
					if *a != b {
						t.Fatalf("%s/%s block [%d,%d): stream state differs from the per-node loop's", backend, name, lo, lo+width)
					}
				}
			}
			if name == "some-dead" && deadDrawers == 0 {
				t.Fatalf("%s: no dead node had a list, so the mask was not compared", backend)
			}
		}
		for _, bad := range []struct{ lo, width, node int }{{-1, 2, -1}, {n - 1, 2, n}, {n, 1, n}} {
			want := panicMessage(func() { g.RandomNeighborPair(bad.node, rng.New(1)) })
			got := panicMessage(func() {
				g.RandomNeighborPairs(bad.lo, nil, rng.New(1), make([]int32, bad.width), make([]int32, bad.width))
			})
			if got == nil || got != want {
				t.Fatalf("block of %d at %d panicked with %v, want %v", bad.width, bad.lo, got, want)
			}
		}
		// A second buffer shorter than the block, or a mask short of the
		// graph, is the caller's bug, named as such.
		short := panicMessage(func() { g.RandomNeighborPairs(1, nil, rng.New(1), make([]int32, 4), make([]int32, 3)) })
		if msg, ok := short.(string); !ok || !strings.HasPrefix(msg, "graph: RandomNeighborPairs buffer") {
			t.Fatalf("short ws buffer panicked with %v, want a graph: message", short)
		}
		short = panicMessage(func() { g.RandomNeighborPairs(1, make([]bool, n-1), rng.New(1), make([]int32, 4), make([]int32, 4)) })
		if msg, ok := short.(string); !ok || !strings.HasPrefix(msg, "graph: liveness mask") {
			t.Fatalf("short mask panicked with %v, want a graph: message", short)
		}
	}
}

func TestEdgesAndNeighbors(t *testing.T) {
	g := pathGraph(4)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("edges %v", es)
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge not normalized: %v", e)
		}
	}
	ns := g.Neighbors(1, nil)
	if len(ns) != 2 {
		t.Fatalf("neighbors of 1: %v", ns)
	}
	row := g.NeighborRow(1)
	if !row.Test(0) || !row.Test(2) || row.Test(3) {
		t.Fatalf("neighbor row wrong: %v", row)
	}
}

func TestEdgeNorm(t *testing.T) {
	if (Edge{3, 1}).Norm() != (Edge{1, 3}) {
		t.Fatal("Norm failed")
	}
	if (Edge{1, 3}).Norm() != (Edge{1, 3}) {
		t.Fatal("Norm changed ordered edge")
	}
}

func TestCloneEqualIndependent(t *testing.T) {
	g := pathGraph(5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(0, 4)
	if g.Equal(c) {
		t.Fatal("mutation visible through clone")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("clone aliased parent")
	}
	g.CheckInvariants()
	c.CheckInvariants()
}

func TestInducedSubgraph(t *testing.T) {
	g := completeGraph(5)
	s := g.InducedSubgraph([]int{0, 2, 4})
	if s.N() != 3 || !s.IsComplete() {
		t.Fatalf("induced subgraph of K5 should be K3: %v", s)
	}
	p := pathGraph(5) // 0-1-2-3-4
	s2 := p.InducedSubgraph([]int{0, 2, 4})
	if s2.M() != 0 {
		t.Fatalf("induced subgraph of alternating path nodes should be empty: %v", s2)
	}
	s3 := p.InducedSubgraph([]int{1, 2, 3})
	if s3.M() != 2 || !s3.HasEdge(0, 1) || !s3.HasEdge(1, 2) {
		t.Fatalf("induced path wrong: %v edges=%v", s3, s3.Edges())
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pathGraph(4).InducedSubgraph([]int{1, 1})
}

func TestBFSDistancesPath(t *testing.T) {
	g := pathGraph(5)
	d := g.BFSDistances(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Fatalf("dist[%d] = %d", i, d[i])
		}
	}
	d2 := g.BFSDistances(2)
	want := []int{2, 1, 0, 1, 2}
	for i := range want {
		if d2[i] != want[i] {
			t.Fatalf("dist from 2: %v", d2)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	d := g.BFSDistances(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable nodes should be -1: %v", d)
	}
}

func TestNeighborhoodSizesAndBall(t *testing.T) {
	g := pathGraph(7)
	sizes := g.NeighborhoodSizes(0, 4)
	want := []int{1, 1, 1, 1, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes %v", sizes)
		}
	}
	ball := g.Ball(0, 4)
	if len(ball) != 4 {
		t.Fatalf("ball %v", ball)
	}
	n2 := g.NodesAtDistance(3, 2)
	if len(n2) != 2 {
		t.Fatalf("N2(3) = %v", n2)
	}
}

// Lemma 1 of the paper: |∪_{i=1..4} Nⁱ(u)| >= min{2δ, n-1} for connected
// graphs. Verified on random connected graphs.
func TestLemma1OnRandomGraphs(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		n := 8 + r.Intn(24)
		g := randomConnected(n, r)
		delta := g.MinDegree()
		for u := 0; u < n; u++ {
			ball := len(g.Ball(u, 4))
			bound := 2 * delta
			if n-1 < bound {
				bound = n - 1
			}
			if ball < bound {
				t.Fatalf("Lemma 1 violated: n=%d u=%d |ball4|=%d < min{2δ=%d, n-1=%d}",
					n, u, ball, 2*delta, n-1)
			}
		}
	}
}

// randomConnected builds a random connected graph: a random spanning tree
// plus a few random extra edges.
func randomConnected(n int, r *rng.Rand) *Undirected {
	g := NewUndirected(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)])
	}
	extra := r.Intn(n)
	for i := 0; i < extra; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

func TestConnectivityAndComponents(t *testing.T) {
	g := NewUndirected(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components %v", comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes %v", comps)
	}
	g.AddEdge(2, 3)
	g.AddEdge(4, 5)
	if !g.IsConnected() {
		t.Fatal("connected graph reported disconnected")
	}
	if len(g.ConnectedComponents()) != 1 {
		t.Fatal("connected graph has >1 component")
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	g := pathGraph(5)
	if d := g.Diameter(); d != 4 {
		t.Fatalf("path diameter %d", d)
	}
	if e := g.Eccentricity(2); e != 2 {
		t.Fatalf("center eccentricity %d", e)
	}
	k := completeGraph(5)
	if d := k.Diameter(); d != 1 {
		t.Fatalf("K5 diameter %d", d)
	}
	dis := NewUndirected(3)
	dis.AddEdge(0, 1)
	if dis.Diameter() != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
	empty := NewUndirected(0)
	if empty.Diameter() != 0 {
		t.Fatal("empty graph diameter")
	}
	single := NewUndirected(1)
	if single.Diameter() != 0 {
		t.Fatal("singleton diameter")
	}
}

func TestStringer(t *testing.T) {
	if s := pathGraph(3).String(); s != "U(n=3, m=2)" {
		t.Fatalf("String %q", s)
	}
}

// Property: adding edges in any order yields the same graph (edge sets,
// degrees) regardless of insertion order.
func TestQuickInsertionOrderIrrelevant(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		r := rng.New(seed)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bool() {
					edges = append(edges, Edge{i, j})
				}
			}
		}
		a := NewUndirected(n)
		for _, e := range edges {
			a.AddEdge(e.U, e.V)
		}
		b := NewUndirected(n)
		perm := r.Perm(len(edges))
		for _, i := range perm {
			b.AddEdge(edges[i].V, edges[i].U) // reversed endpoints too
		}
		a.CheckInvariants()
		b.CheckInvariants()
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sum equals 2m, membership matrix is symmetric.
func TestQuickHandshake(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(20)
		g := randomConnected(n, r)
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(u)
			for v := 0; v < n; v++ {
				if g.HasEdge(u, v) != g.HasEdge(v, u) {
					return false
				}
			}
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddEdgeDense(b *testing.B) {
	n := 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
	}
}

func BenchmarkRandomNeighbor(b *testing.B) {
	g := completeGraph(512)
	r := rng.New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += g.RandomNeighbor(i%512, r)
	}
	_ = sink
}

// TestAddEdgesMatchesAddEdgeLoop: the batched commit path must be
// observationally identical to a loop of AddEdge calls, including self-loop
// skipping and in-batch duplicate handling.
func TestAddEdgesMatchesAddEdgeLoop(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		batch := make([]Edge, 0, 3*n)
		for i := 0; i < 3*n; i++ {
			batch = append(batch, Edge{U: r.Intn(n), V: r.Intn(n)})
		}
		a, b := NewUndirected(n), NewUndirected(n)
		want := 0
		for _, e := range batch {
			if a.AddEdge(e.U, e.V) {
				want++
			}
		}
		if got := b.AddEdges(batch); got != want {
			t.Fatalf("n=%d AddEdges added %d want %d", n, got, want)
		}
		if !a.Equal(b) {
			t.Fatalf("n=%d batched graph differs from sequential", n)
		}
		b.CheckInvariants()
	}
}

func TestAddEdgesOutOfRangePanics(t *testing.T) {
	g := NewUndirected(4)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdges with out-of-range node did not panic")
		}
	}()
	g.AddEdges([]Edge{{U: 1, V: 4}})
}

func BenchmarkAddEdgesBatchDense(b *testing.B) {
	n := 256
	batch := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			batch = append(batch, Edge{U: u, V: v})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewUndirected(n)
		if g.AddEdges(batch) != len(batch) {
			b.Fatal("batch insert failed")
		}
	}
}

// TestAddEdgesGroupedEquivalence: the grouped commit (which AddEdges
// delegates to) must be state-identical to a sequence of per-edge AddEdge
// calls — same matrix, same adjacency *insertion order* (the order random
// neighbor sampling indexes into), same new-edge count — while also
// returning the accepted edges normalized and deduplicated.
func TestAddEdgesGroupedEquivalence(t *testing.T) {
	for _, backend := range []Backend{BackendDense, BackendSparse} {
		t.Run(backend.String(), func(t *testing.T) {
			f := func(seed uint64, raw []uint16) bool {
				r := rng.New(seed)
				const n = 60
				// Random batches over a random base graph, with duplicates,
				// reversed duplicates, and self-loops mixed in.
				base := NewUndirectedOn(n, backend)
				for i := 0; i < 40; i++ {
					base.AddEdge(r.Intn(n), r.Intn(n))
				}
				var batch []Edge
				for _, x := range raw {
					u, v := int(x)%n, int(x/60)%n
					batch = append(batch, Edge{U: u, V: v})
					if u != v && len(batch)%3 == 0 {
						batch = append(batch, Edge{U: v, V: u}) // reversed duplicate
					}
				}
				a, b, c := base.Clone(), base.Clone(), base.Clone()
				added := 0
				for _, e := range batch {
					if a.AddEdge(e.U, e.V) {
						added++
					}
				}
				accepted := b.AddEdgesGrouped(batch, nil)
				if len(accepted) != added {
					t.Logf("accepted %d, AddEdge added %d", len(accepted), added)
					return false
				}
				// In place: a copy of the batch committed into its own front
				// accepts the same edges in the same order.
				inPlace := slices.Clone(batch)
				inPlace = c.AddEdgesGrouped(inPlace, inPlace[:0])
				if !slices.Equal(inPlace, accepted) {
					t.Logf("in-place accepted %v, separate buffer %v", inPlace, accepted)
					return false
				}
				for _, g := range []*Undirected{b, c} {
					if !a.Equal(g) || a.M() != g.M() {
						return false
					}
					// Adjacency insertion order must match exactly.
					for u := 0; u < n; u++ {
						if a.Degree(u) != g.Degree(u) {
							return false
						}
						for i := 0; i < a.Degree(u); i++ {
							if a.Neighbor(u, i) != g.Neighbor(u, i) {
								t.Logf("adj order differs at node %d index %d", u, i)
								return false
							}
						}
					}
					g.CheckInvariants()
				}
				// Accepted edges: normalized, unique, and actually new w.r.t. base.
				seen := map[Edge]bool{}
				for _, e := range accepted {
					if e.U >= e.V || seen[e] || base.HasEdge(e.U, e.V) {
						return false
					}
					seen[e] = true
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAddEdgesGroupedReuse: the accepted buffer and the graph-owned scratch
// are reusable across commits without cross-talk.
func TestAddEdgesGroupedReuse(t *testing.T) {
	g := NewUndirected(10)
	buf := make([]Edge, 0, 16)
	buf = g.AddEdgesGrouped([]Edge{{0, 1}, {1, 2}, {0, 1}}, buf[:0])
	if len(buf) != 2 {
		t.Fatalf("first commit accepted %v", buf)
	}
	buf = g.AddEdgesGrouped([]Edge{{1, 2}, {2, 3}, {3, 3}}, buf[:0])
	if len(buf) != 1 || (buf[0] != Edge{2, 3}) {
		t.Fatalf("second commit accepted %v", buf)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	g.CheckInvariants()
}

func TestAddEdgesGroupedOutOfRangePanics(t *testing.T) {
	g := NewUndirected(4)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdgesGrouped with out-of-range node did not panic")
		}
	}()
	g.AddEdgesGrouped([]Edge{{U: 1, V: 4}}, nil)
}

// bruteMissing returns u's non-neighbors (excluding u) in increasing order.
func bruteMissing(g *Undirected, u int) []int {
	out := []int{}
	for v := 0; v < g.N(); v++ {
		if v != u && !g.HasEdge(u, v) {
			out = append(out, v)
		}
	}
	return out
}

func TestMissingDegreeAndNeighbor(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 2, 5, 64, 65, 100} {
		g := NewUndirected(n)
		// Random fill through both commit paths so the views stay consistent
		// no matter which path inserted an edge.
		var batch []Edge
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if i%2 == 0 {
				g.AddEdge(u, v)
			} else {
				batch = append(batch, Edge{u, v})
			}
		}
		g.AddEdges(batch)

		totalMissing := 0
		for u := 0; u < n; u++ {
			want := bruteMissing(g, u)
			if got := g.MissingDegree(u); got != len(want) {
				t.Fatalf("n=%d u=%d: MissingDegree %d want %d", n, u, got, len(want))
			}
			totalMissing += len(want)
			for k, w := range want {
				if got := g.MissingNeighbor(u, k); got != w {
					t.Fatalf("n=%d u=%d: MissingNeighbor(%d) = %d want %d", n, u, k, got, w)
				}
			}
		}
		// Handshake over the complement: each missing pair counted twice.
		if totalMissing != 2*g.MissingEdges() {
			t.Fatalf("n=%d: per-node missing sum %d != 2×MissingEdges %d", n, totalMissing, 2*g.MissingEdges())
		}
	}
}

func TestMissingNeighborPanicsOutOfRange(t *testing.T) {
	g := pathGraph(5)
	for _, f := range []func(){
		func() { g.MissingNeighbor(0, -1) },
		func() { g.MissingNeighbor(0, g.MissingDegree(0)) },
		func() { g.MissingNeighbor(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMissingViewsOnCompleteAndEmpty(t *testing.T) {
	g := completeGraph(5)
	for u := 0; u < 5; u++ {
		if g.MissingDegree(u) != 0 {
			t.Fatalf("complete graph node %d missing degree %d", u, g.MissingDegree(u))
		}
	}
	e := NewUndirected(4)
	for u := 0; u < 4; u++ {
		if e.MissingDegree(u) != 3 {
			t.Fatalf("empty graph node %d missing degree %d", u, e.MissingDegree(u))
		}
	}
}
