package gen

import (
	"testing"
	"testing/quick"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

func TestPathCycleStar(t *testing.T) {
	p := Path(5)
	if p.M() != 4 || !p.IsConnected() || p.Diameter() != 4 {
		t.Fatalf("path wrong: %v", p)
	}
	c := Cycle(5)
	if c.M() != 5 || c.MinDegree() != 2 || c.Diameter() != 2 {
		t.Fatalf("cycle wrong: %v", c)
	}
	if Cycle(2).M() != 1 {
		t.Fatal("Cycle(2) should degrade to an edge")
	}
	s := Star(6)
	if s.M() != 5 || s.Degree(0) != 5 || s.MinDegree() != 1 {
		t.Fatalf("star wrong: %v", s)
	}
}

// TestCycleSparseAllocsPerNode pins the sparse backend's set-up cost: a
// short row has no storage of its own, so a cycle costs one allocation per
// node (its two-entry neighbor list) plus the graph's fixed handful.
func TestCycleSparseAllocsPerNode(t *testing.T) {
	const n = 10_000
	allocs := testing.AllocsPerRun(3, func() { Cycle(n, graph.BackendSparse) })
	if allocs > n+16 {
		t.Fatalf("Cycle(%d, sparse) made %.0f allocations, want <= 1 per node", n, allocs)
	}
}

func TestComplete(t *testing.T) {
	k := Complete(7)
	if !k.IsComplete() || k.M() != 21 {
		t.Fatalf("K7 wrong: %v", k)
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(7)
	if g.M() != 6 || !g.IsConnected() {
		t.Fatalf("bintree wrong: %v", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(1, 3) {
		t.Fatal("bintree edges wrong")
	}
}

func TestRandomTree(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 10, 50} {
		g := RandomTree(n, r)
		if g.M() != n-1 && n > 0 {
			if !(n == 1 && g.M() == 0) {
				t.Fatalf("tree on %d nodes has %d edges", n, g.M())
			}
		}
		if !g.IsConnected() {
			t.Fatalf("tree on %d nodes disconnected", n)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.M() != 3*3+2*4 {
		t.Fatalf("grid wrong: %v", g)
	}
	if !g.IsConnected() || g.Diameter() != 5 {
		t.Fatalf("grid diameter %d", g.Diameter())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(3)
	if g.N() != 8 || g.M() != 12 || g.MinDegree() != 3 || g.MaxDegree() != 3 {
		t.Fatalf("Q3 wrong: %v", g)
	}
	if g.Diameter() != 3 {
		t.Fatalf("Q3 diameter %d", g.Diameter())
	}
}

func TestLollipopBarbell(t *testing.T) {
	l := Lollipop(10)
	if !l.IsConnected() || l.N() != 10 {
		t.Fatalf("lollipop wrong: %v", l)
	}
	if l.MinDegree() != 1 { // path end
		t.Fatalf("lollipop min degree %d", l.MinDegree())
	}
	b := Barbell(10)
	if !b.IsConnected() || b.M() != 2*10+1 {
		t.Fatalf("barbell wrong: %v m=%d", b, b.M())
	}
}

func TestConnectedER(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{5, 20, 60} {
		g := ConnectedER(n, 1.5/float64(n), r)
		if !g.IsConnected() {
			t.Fatalf("ER(%d) disconnected", n)
		}
	}
	// Dense ER should rarely need patching and be connected anyway.
	g := ConnectedER(30, 0.5, r)
	if !g.IsConnected() {
		t.Fatal("dense ER disconnected")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	r := rng.New(9)
	g := PreferentialAttachment(100, 2, r)
	if !g.IsConnected() {
		t.Fatal("PA graph disconnected")
	}
	// Every node beyond the seed clique contributes exactly m edges.
	wantM := 3 + (100-3)*2
	if g.M() != wantM {
		t.Fatalf("PA edges %d want %d", g.M(), wantM)
	}
	// Power-lawish: max degree should dominate min degree.
	if g.MaxDegree() < 3*g.MinDegree() {
		t.Fatalf("PA degrees suspiciously flat: min=%d max=%d", g.MinDegree(), g.MaxDegree())
	}
}

func TestTwoClustersBridge(t *testing.T) {
	r := rng.New(11)
	g := TwoClustersBridge(40, 0.3, r)
	if !g.IsConnected() || g.N() != 40 {
		t.Fatalf("two clusters wrong: %v", g)
	}
	if !g.HasEdge(0, 20) {
		t.Fatal("bridge edge missing")
	}
}

func TestNearComplete(t *testing.T) {
	r := rng.New(13)
	for _, k := range []int{0, 1, 5, 20} {
		g := NearComplete(10, k, r)
		if g.MissingEdges() != k {
			t.Fatalf("NearComplete(10,%d) missing %d", k, g.MissingEdges())
		}
		if !g.IsConnected() {
			t.Fatalf("NearComplete(10,%d) disconnected", k)
		}
	}
}

func TestNearCompletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NearComplete(5, 7, rng.New(1)) // max removable for n=5 is 10-4=6
}

func TestFig1c(t *testing.T) {
	g := Fig1cGraph()
	h := Fig1cSubgraph()
	if g.M() != 4 || h.M() != 3 {
		t.Fatalf("Fig1c sizes: %d, %d", g.M(), h.M())
	}
	if !g.IsConnected() || !h.IsConnected() {
		t.Fatal("Fig1c graphs must be connected")
	}
	// H is the subgraph of G induced by the triangle nodes, so every edge
	// of H (on nodes 0..2) must be an edge of G, and H must be complete.
	for _, e := range h.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("subgraph edge %v not in G", e)
		}
	}
	if !h.IsComplete() {
		t.Fatal("Fig1c subgraph (triangle) should be complete")
	}
	if !g.InducedSubgraph([]int{0, 1, 2}).Equal(h) {
		t.Fatal("Fig1cSubgraph is not the induced triangle of Fig1cGraph")
	}
}

func TestNonMonotonePair(t *testing.T) {
	g, h := NonMonotonePair()
	if g.N() != 4 || h.N() != 4 || g.M() != 5 || h.M() != 4 {
		t.Fatalf("pair sizes: %v, %v", g, h)
	}
	if !g.IsConnected() || !h.IsConnected() {
		t.Fatal("pair must be connected")
	}
	for _, e := range h.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("H edge %v not in G", e)
		}
	}
	if g.HasEdge(2, 3) {
		t.Fatal("G should be K4 minus {2,3}")
	}
	// H is the 4-cycle 0-2-1-3: all degrees 2.
	if h.MinDegree() != 2 || h.MaxDegree() != 2 {
		t.Fatalf("H not a cycle: histogram %v", h.DegreeHistogram())
	}
}

func TestDirectedPathCycle(t *testing.T) {
	p := DirectedPath(4)
	if p.M() != 3 || p.IsStronglyConnected() || !p.IsWeaklyConnected() {
		t.Fatalf("directed path wrong: %v", p)
	}
	c := DirectedCycle(4)
	if c.M() != 4 || !c.IsStronglyConnected() {
		t.Fatalf("directed cycle wrong: %v", c)
	}
}

func TestCompleteDigraph(t *testing.T) {
	g := CompleteDigraph(5)
	if g.M() != 20 || !g.IsClosed() {
		t.Fatalf("complete digraph wrong: %v", g)
	}
}

func TestRandomStronglyConnected(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{2, 5, 30} {
		g := RandomStronglyConnected(n, n, r)
		if !g.IsStronglyConnected() {
			t.Fatalf("RandomStronglyConnected(%d) not strong", n)
		}
	}
}

func TestRandomWeaklyConnected(t *testing.T) {
	r := rng.New(19)
	g := RandomWeaklyConnected(30, 5, r)
	if !g.IsWeaklyConnected() {
		t.Fatal("not weakly connected")
	}
}

func TestThm14Construction(t *testing.T) {
	n := 16
	g := Thm14WeakLowerBound(n)
	if !g.IsWeaklyConnected() {
		t.Fatal("Thm14 graph not weakly connected")
	}
	if g.IsStronglyConnected() {
		t.Fatal("Thm14 graph should not be strongly connected")
	}
	// Chain arcs exist.
	for i := 0; i < n/4; i++ {
		if !g.HasArc(3*i, 3*i+1) || !g.HasArc(3*i+1, 3*i+2) {
			t.Fatalf("chain arcs missing at i=%d", i)
		}
		if g.HasArc(3*i, 3*i+2) {
			t.Fatalf("closure arc pre-exists at i=%d", i)
		}
	}
	// The missing closure arcs are exactly the n/4 arcs (3i -> 3i+2).
	closure := g.ClosureArcCount()
	if closure != g.M()+n/4 {
		t.Fatalf("closure %d != m %d + missing %d", closure, g.M(), n/4)
	}
}

func TestThm14Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Thm14WeakLowerBound(10)
}

func TestThm15Construction(t *testing.T) {
	n := 12
	g := Thm15StrongLowerBound(n)
	if !g.IsStronglyConnected() {
		t.Fatal("Thm15 graph must be strongly connected")
	}
	half := n / 2
	// Low half complete digraph.
	for i := 0; i < half; i++ {
		for j := 0; j < half; j++ {
			if i != j && !g.HasArc(i, j) {
				t.Fatalf("low-half arc (%d,%d) missing", i, j)
			}
		}
	}
	// Chain through the high half.
	for i := half - 1; i <= n-2; i++ {
		if !g.HasArc(i, i+1) {
			t.Fatalf("chain arc (%d,%d) missing", i, i+1)
		}
	}
	// High nodes point at everything below.
	for i := half; i < n; i++ {
		for j := 0; j < i; j++ {
			if !g.HasArc(i, j) {
				t.Fatalf("down arc (%d,%d) missing", i, j)
			}
		}
	}
	// Out-degree of every node is at least n/2 (used by the proof).
	for u := 0; u < n; u++ {
		if g.OutDegree(u) < half-1 {
			t.Fatalf("node %d out-degree %d too small", u, g.OutDegree(u))
		}
	}
}

func TestLayeredDAG(t *testing.T) {
	g := LayeredDAG(3, 2)
	if g.N() != 6 || g.M() != 2*2*2 {
		t.Fatalf("layered DAG wrong: %v", g)
	}
	if g.IsStronglyConnected() {
		t.Fatal("DAG strongly connected")
	}
	if g.CondensationSize() != 6 {
		t.Fatal("DAG SCCs wrong")
	}
}

func TestRegistryGeneratesConnected(t *testing.T) {
	r := rng.New(23)
	for _, f := range UndirectedFamilies() {
		for _, n := range []int{f.MinN, f.MinN + 5, 33} {
			if n < f.MinN {
				continue
			}
			g := f.Generate(n, r.Split())
			if !g.IsConnected() {
				t.Fatalf("family %q at n=%d disconnected", f.Name, n)
			}
			if g.N() < 2 {
				t.Fatalf("family %q at n=%d produced %d nodes", f.Name, n, g.N())
			}
		}
	}
}

func TestRegistryDirectedWeaklyConnected(t *testing.T) {
	r := rng.New(29)
	for _, f := range DirectedFamilies() {
		n := f.MinN + 8
		g := f.Generate(n, r.Split())
		if !g.IsWeaklyConnected() {
			t.Fatalf("directed family %q at n=%d not weakly connected", f.Name, n)
		}
	}
}

func TestFamilyLookup(t *testing.T) {
	if _, err := FamilyByName("path"); err != nil {
		t.Fatal(err)
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Fatal("expected error for unknown family")
	}
	if _, err := DirectedFamilyByName("thm15"); err != nil {
		t.Fatal(err)
	}
	if _, err := DirectedFamilyByName("nope"); err == nil {
		t.Fatal("expected error for unknown directed family")
	}
	if len(FamilyNames()) < 10 {
		t.Fatalf("too few registered families: %v", FamilyNames())
	}
}

// Property: ConnectedER always yields connected graphs across p.
func TestQuickConnectedER(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(30)
		p := float64(pRaw) / 255.0
		return ConnectedER(n, p, r).IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Thm15 construction is strongly connected and has min out-degree
// >= n/2 - 1 for all even n.
func TestQuickThm15(t *testing.T) {
	f := func(raw uint8) bool {
		n := 4 + 2*int(raw%20)
		g := Thm15StrongLowerBound(n)
		for u := 0; u < n; u++ {
			if g.OutDegree(u) < n/2-1 {
				return false
			}
		}
		return g.IsStronglyConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
