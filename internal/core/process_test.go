package core

import (
	"math"
	"testing"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// collect runs one Act for node u and returns the proposed edges.
func collect(p Process, g *graph.Undirected, u int, r *rng.Rand) []graph.Edge {
	var out []graph.Edge
	p.Act(g, u, r, func(a, b int) { out = append(out, graph.Edge{U: a, V: b}) })
	return out
}

func TestPushProposesPairsOfNeighbors(t *testing.T) {
	// Star center: push by the center proposes a pair of leaves.
	g := gen.Star(5)
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		es := collect(Push{}, g, 0, r)
		if len(es) > 1 {
			t.Fatalf("push proposed %d edges", len(es))
		}
		for _, e := range es {
			if e.U == 0 || e.V == 0 || e.U == e.V {
				t.Fatalf("push from center proposed %v", e)
			}
			if !g.HasEdge(0, e.U) || !g.HasEdge(0, e.V) {
				t.Fatalf("push proposed non-neighbors %v", e)
			}
		}
	}
}

// actRangeN is the size of the ActRange tests' graphs, and actRangeHoles the
// nodes they leave without a (out-)list: both ends of every range tried
// (lo = 3 and lo+width-1 for each width of actRangeMatchesAct) and some
// inside them.
const actRangeN = 140

var actRangeHoles = map[int]bool{0: true, 3: true, 20: true, 33: true, 34: true, 35: true, 102: true, actRangeN - 1: true}

// actRangeMatchesAct holds a block form to its definition on a graph g of
// actRangeN nodes: actRangeProposesAsAct, and on a node outside the graph
// it panics as act does. E is graph.Edge or graph.Arc, built by mk.
func actRangeMatchesAct[G any, E comparable](t *testing.T, label string, g G,
	act func(g G, u int, r *rng.Rand, propose func(a, b int)),
	actRange func(g G, lo, hi int, r *rng.Rand, out []E) []E,
	mk func(a, b int) E) {
	t.Helper()
	actRangeProposesAsAct(t, label, g, act, actRange, mk)
	panicOf := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	const n = actRangeN
	for _, bad := range []struct{ lo, hi, node int }{{-1, 5, -1}, {n - 2, n + 1, n}, {n, n + 1, n}} {
		want := panicOf(func() { act(g, bad.node, rng.New(1), func(int, int) {}) })
		got := panicOf(func() { actRange(g, bad.lo, bad.hi, rng.New(1), nil) })
		if got == nil || got != want {
			t.Fatalf("%s ActRange(%d, %d) panicked with %v, Act(%d) with %v", label, bad.lo, bad.hi, got, bad.node, want)
		}
	}
}

// actRangeProposesAsAct: over any range, actRange appends exactly what
// per-node act proposes, in order, and leaves the stream in the same state.
// Widths straddle the 32-node block; the ranges at 63 lie in
// actRangeMask's dead run.
func actRangeProposesAsAct[G any, E comparable](t *testing.T, label string, g G,
	act func(g G, u int, r *rng.Rand, propose func(a, b int)),
	actRange func(g G, lo, hi int, r *rng.Rand, out []E) []E,
	mk func(a, b int) E) {
	t.Helper()
	const n = actRangeN
	ranges := [][2]int{{0, n}, {0, 0}, {n, n}}
	for _, width := range []int{1, 31, 32, 33, 100} {
		ranges = append(ranges, [2]int{3, 3 + width}, [2]int{63, min(63+width, n)})
	}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		a := rng.New(uint64(hi))
		c := *a
		var want []E
		for u := lo; u < hi; u++ {
			act(g, u, a, func(x, y int) { want = append(want, mk(x, y)) })
		}
		prefix := []E{mk(-5, -6)} // ActRange appends; it does not overwrite
		got := actRange(g, lo, hi, &c, prefix)
		if len(got) != 1+len(want) || got[0] != prefix[0] {
			t.Fatalf("%s [%d,%d): %d proposals after the prefix, want %d", label, lo, hi, len(got)-1, len(want))
		}
		for i, e := range want {
			if got[1+i] != e {
				t.Fatalf("%s [%d,%d): proposal %d is %v, per-node Act proposed %v", label, lo, hi, i, got[1+i], e)
			}
		}
		if *a != c {
			t.Fatalf("%s [%d,%d): stream state differs from the per-node loop's", label, lo, hi)
		}
		if hi-lo > 1 && len(want) == 0 && lo != 63 {
			t.Fatalf("%s [%d,%d): nothing proposed, so nothing compared", label, lo, hi)
		}
	}
}

// actRangeGraphs are the undirected ActRange tests' graphs, one per backend:
// isolated nodes (actRangeHoles) and degrees on both sides of 1.
func actRangeGraphs(t *testing.T) []*graph.Undirected {
	const n = actRangeN
	var gs []*graph.Undirected
	for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
		g := graph.NewUndirectedOn(n, b)
		build := rng.New(7)
		for k := 0; k < 4*n; k++ {
			if u, v := build.Intn(n), build.Intn(n); !actRangeHoles[u] && !actRangeHoles[v] {
				g.AddEdge(u, v)
			}
		}
		for u := range actRangeHoles {
			if g.Degree(u) != 0 {
				t.Fatalf("node %d should be isolated", u)
			}
		}
		gs = append(gs, g)
	}
	return gs
}

// actRangeMask is the crash tests' liveness mask: every fourth node dead,
// and the run [63, 98) all dead, so ranges at 63 hold whole dead blocks.
func actRangeMask() []bool {
	alive := make([]bool, actRangeN)
	for u := range alive {
		alive[u] = u%4 != 1 && (u < 63 || u >= 98)
	}
	return alive
}

func mkEdge(a, b int) graph.Edge { return graph.Edge{U: a, V: b} }

// undirectedActRangeMatchesAct runs actRangeMatchesAct on actRangeGraphs.
func undirectedActRangeMatchesAct(t *testing.T, p Process, actRange func(g *graph.Undirected, lo, hi int, r *rng.Rand, edges []graph.Edge) []graph.Edge) {
	for _, g := range actRangeGraphs(t) {
		actRangeMatchesAct(t, g.Backend().String(), g, p.Act, actRange, mkEdge)
	}
}

// TestPushActRangeMatchesAct holds Push's block form to per-node Act.
func TestPushActRangeMatchesAct(t *testing.T) {
	undirectedActRangeMatchesAct(t, Push{}, Push{}.ActRange)
}

// TestPullActRangeMatchesAct is the same pin for the two-hop walk.
func TestPullActRangeMatchesAct(t *testing.T) {
	undirectedActRangeMatchesAct(t, Pull{}, Pull{}.ActRange)
}

// TestCrashedActRangeMatchesAct holds Crashed's block form to per-node Act
// under actRangeMask: over Push, the masked pairs; over Pull, the per-node
// fallback. (A node outside the graph panics in both, but Act indexes the
// mask first, so the messages differ.)
func TestCrashedActRangeMatchesAct(t *testing.T) {
	alive := actRangeMask()
	for _, g := range actRangeGraphs(t) {
		for _, p := range []Crashed{{Inner: Push{}, Alive: alive}, {Inner: Pull{}, Alive: alive}} {
			actRangeProposesAsAct(t, g.Backend().String()+"/"+p.Name(), g, p.Act, p.ActRange, mkEdge)
		}
	}
}

// TestCrashedPullActRangeMatchesAct is the same pin for the masked walks:
// dead starts, dead relays and dead contacts.
func TestCrashedPullActRangeMatchesAct(t *testing.T) {
	p := CrashedPull{Alive: actRangeMask()}
	for _, g := range actRangeGraphs(t) {
		actRangeProposesAsAct(t, g.Backend().String(), g, p.Act, p.ActRange, mkEdge)
	}
}

// TestDirectedTwoHopActRangeMatchesAct is the same pin for the directed walk.
// The holes are sinks with in-arcs: at both ends of every range tried, and
// reached as middle hops.
func TestDirectedTwoHopActRangeMatchesAct(t *testing.T) {
	const n = actRangeN
	g := graph.NewDirected(n)
	build := rng.New(8)
	for k := 0; k < 4*n; k++ {
		if u, v := build.Intn(n), build.Intn(n); !actRangeHoles[u] {
			g.AddArc(u, v)
		}
	}
	for u := range actRangeHoles {
		if g.OutDegree(u) != 0 || g.InDegree(u) == 0 {
			t.Fatalf("node %d should be a sink with in-arcs", u)
		}
	}
	p := DirectedTwoHop{}
	actRangeMatchesAct(t, "directed", g, p.Act, p.ActRange, func(a, b int) graph.Arc { return graph.Arc{U: a, V: b} })
}

func TestPushSelfPairProposesNothing(t *testing.T) {
	// A leaf has exactly one neighbor: both samples coincide, no proposal.
	g := gen.Star(5)
	r := rng.New(2)
	for i := 0; i < 100; i++ {
		if es := collect(Push{}, g, 1, r); len(es) != 0 {
			t.Fatalf("leaf push proposed %v", es)
		}
	}
}

func TestPushIsolatedNodeNoop(t *testing.T) {
	g := graph.NewUndirected(3)
	r := rng.New(3)
	if es := collect(Push{}, g, 0, r); len(es) != 0 {
		t.Fatalf("isolated push proposed %v", es)
	}
}

func TestPushPairProbability(t *testing.T) {
	// Center of a 3-leaf star: P(propose {a,b}) for distinct leaves a,b is
	// 2/9 per unordered pair; P(no proposal) = 3/9.
	g := gen.Star(4)
	r := rng.New(4)
	const draws = 60000
	counts := map[graph.Edge]int{}
	empty := 0
	for i := 0; i < draws; i++ {
		es := collect(Push{}, g, 0, r)
		if len(es) == 0 {
			empty++
			continue
		}
		counts[es[0].Norm()]++
	}
	if rate := float64(empty) / draws; math.Abs(rate-1.0/3) > 0.01 {
		t.Fatalf("empty rate %.4f want 1/3", rate)
	}
	for pair, c := range counts {
		if rate := float64(c) / draws; math.Abs(rate-2.0/9) > 0.01 {
			t.Fatalf("pair %v rate %.4f want 2/9", pair, rate)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("expected 3 distinct pairs, got %v", counts)
	}
}

func TestPullProposesTwoHopTargets(t *testing.T) {
	// Path 0-1-2: pull by 0 walks 0→1→{0,2}; proposes {0,2} half the time.
	g := gen.Path(3)
	r := rng.New(5)
	const draws = 40000
	hits, empty := 0, 0
	for i := 0; i < draws; i++ {
		es := collect(Pull{}, g, 0, r)
		switch len(es) {
		case 0:
			empty++
		case 1:
			e := es[0].Norm()
			if e != (graph.Edge{U: 0, V: 2}) {
				t.Fatalf("pull proposed %v", e)
			}
			hits++
		default:
			t.Fatalf("pull proposed %d edges", len(es))
		}
	}
	if rate := float64(hits) / draws; math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("pull hit rate %.4f want 0.5", rate)
	}
	if hits+empty != draws {
		t.Fatal("accounting broken")
	}
}

func TestPullDistribution(t *testing.T) {
	// Fig 1(b)-style check on the Fig 1(c) graph: triangle {0,1,2} plus
	// pendant 3 on 2. From node 3 the walk is 3→2→{0,1,3} uniformly, so
	// P({3,0}) = P({3,1}) = 1/3 and P(nothing) = 1/3.
	g := gen.Fig1cGraph()
	r := rng.New(6)
	const draws = 60000
	counts := map[graph.Edge]int{}
	empty := 0
	for i := 0; i < draws; i++ {
		es := collect(Pull{}, g, 3, r)
		if len(es) == 0 {
			empty++
			continue
		}
		counts[es[0].Norm()]++
	}
	for _, want := range []graph.Edge{{U: 0, V: 3}, {U: 1, V: 3}} {
		rate := float64(counts[want]) / draws
		if math.Abs(rate-1.0/3) > 0.01 {
			t.Fatalf("edge %v rate %.4f want 1/3", want, rate)
		}
	}
	if rate := float64(empty) / draws; math.Abs(rate-1.0/3) > 0.01 {
		t.Fatalf("empty rate %.4f want 1/3", rate)
	}
}

func TestPullIsolatedNoop(t *testing.T) {
	g := graph.NewUndirected(2)
	r := rng.New(7)
	if es := collect(Pull{}, g, 0, r); len(es) != 0 {
		t.Fatalf("isolated pull proposed %v", es)
	}
}

func collectDirected(p DirectedProcess, g *graph.Directed, u int, r *rng.Rand) []graph.Arc {
	var out []graph.Arc
	p.Act(g, u, r, func(a, b int) { out = append(out, graph.Arc{U: a, V: b}) })
	return out
}

func TestDirectedTwoHopWalk(t *testing.T) {
	// Directed path 0→1→2: node 0's walk always reaches 2.
	g := gen.DirectedPath(3)
	r := rng.New(8)
	for i := 0; i < 200; i++ {
		as := collectDirected(DirectedTwoHop{}, g, 0, r)
		if len(as) != 1 || as[0] != (graph.Arc{U: 0, V: 2}) {
			t.Fatalf("directed two-hop proposed %v", as)
		}
	}
	// Node 1's walk dead-ends at 2 (no out-neighbors).
	if as := collectDirected(DirectedTwoHop{}, g, 1, r); len(as) != 0 {
		t.Fatalf("dead-end walk proposed %v", as)
	}
	// Sink proposes nothing.
	if as := collectDirected(DirectedTwoHop{}, g, 2, r); len(as) != 0 {
		t.Fatalf("sink proposed %v", as)
	}
}

func TestDirectedTwoHopReturnsToSelfNoop(t *testing.T) {
	// 2-cycle: every walk from 0 is 0→1→0; no arc proposed.
	g := gen.DirectedCycle(2)
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		if as := collectDirected(DirectedTwoHop{}, g, 0, r); len(as) != 0 {
			t.Fatalf("self-returning walk proposed %v", as)
		}
	}
}

func TestDirectedTwoHopStaysInClosure(t *testing.T) {
	// Property: any proposal (u, w) is within the transitive closure of g.
	r := rng.New(10)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(12)
		g := gen.RandomStronglyConnected(n, r.Intn(2*n), r)
		closure := g.TransitiveClosure()
		for u := 0; u < n; u++ {
			for rep := 0; rep < 10; rep++ {
				for _, a := range collectDirected(DirectedTwoHop{}, g, u, r) {
					if !closure[a.U].Test(a.V) {
						t.Fatalf("proposal %v outside closure", a)
					}
				}
			}
		}
	}
}

func TestProcessNames(t *testing.T) {
	cases := map[string]string{
		Push{}.Name():                                    "push",
		Pull{}.Name():                                    "pull",
		DirectedTwoHop{}.Name():                          "directed-two-hop",
		PushPull{}.Name():                                "push-pull",
		Wrap(Push{}, Fail(0.25)).Name():                  "push+fail0.25",
		Wrap(Pull{}, Participation(0.5)).Name():          "pull+part0.50",
		(Crashed{Push{}, nil}).Name():                    "push+crash",
		WrapDirected(DirectedTwoHop{}, Fail(0.1)).Name(): "directed-two-hop+fail0.10",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("name %q want %q", got, want)
		}
	}
}

func TestFaultyDropsEverythingAtP1(t *testing.T) {
	g := gen.Complete(4)
	r := rng.New(11)
	p := Wrap(Push{}, Fail(1))
	for u := 0; u < 4; u++ {
		for i := 0; i < 50; i++ {
			if es := collect(p, g, u, r); len(es) != 0 {
				t.Fatalf("Fail(1) proposed %v", es)
			}
		}
	}
}

func TestFaultyPassesEverythingAtP0(t *testing.T) {
	g := gen.Star(6)
	r := rng.New(12)
	p := Wrap(Push{}, Fail(0))
	got := 0
	for i := 0; i < 500; i++ {
		got += len(collect(p, g, 0, r))
	}
	if got == 0 {
		t.Fatal("Fail(0) never proposed")
	}
}

func TestPartialZeroNeverActs(t *testing.T) {
	g := gen.Complete(5)
	r := rng.New(13)
	p := Wrap(Push{}, Participation(0))
	for u := 0; u < 5; u++ {
		if es := collect(p, g, u, r); len(es) != 0 {
			t.Fatalf("Participation(0) proposed %v", es)
		}
	}
}

func TestPartialRate(t *testing.T) {
	g := gen.Star(4)
	r := rng.New(14)
	const draws = 40000
	// A deterministic probe isolates the participation gate from the inner
	// process's own no-proposal outcomes.
	probe := Wrap(probeProcess{}, Participation(0.5))
	hits := 0
	for i := 0; i < draws; i++ {
		hits += len(collect(probe, g, 0, r))
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("Participation(0.5) act rate %.4f", rate)
	}
}

// probeProcess always proposes the fixed edge (0, 1).
type probeProcess struct{}

func (probeProcess) Name() string { return "probe" }
func (probeProcess) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	propose(0, 1)
}

func TestCrashedFiltersDeadNodes(t *testing.T) {
	g := gen.Complete(4)
	alive := []bool{true, true, false, true}
	p := Crashed{Inner: probeAll{}, Alive: alive}
	r := rng.New(15)
	// Dead node 2 never acts.
	if es := collect(p, g, 2, r); len(es) != 0 {
		t.Fatalf("dead node acted: %v", es)
	}
	// Live node proposals touching node 2 are dropped.
	for i := 0; i < 100; i++ {
		for _, e := range collect(p, g, 0, r) {
			if e.U == 2 || e.V == 2 {
				t.Fatalf("proposal involving dead node survived: %v", e)
			}
		}
	}
}

// TestCrashedPushActDoesNotAllocate pins the cost of the churn runtime's
// process — Crashed over Push, one activation per member per round: the
// liveness filter must not cost a heap allocation per activation.
func TestCrashedPushActDoesNotAllocate(t *testing.T) {
	g := gen.Cycle(16)
	alive := make([]bool, 16)
	for i := range alive {
		alive[i] = i%5 != 0
	}
	var p Process = Crashed{Inner: Push{}, Alive: alive}
	r := rng.New(15)
	proposals := 0
	propose := func(a, b int) { proposals++ }
	allocs := testing.AllocsPerRun(100, func() {
		for u := 0; u < 16; u++ {
			p.Act(g, u, r, propose)
		}
	})
	if allocs != 0 || proposals == 0 {
		t.Fatalf("16 activations: %v allocations, %d proposals; want 0 allocations and some proposals", allocs, proposals)
	}
}

// probeAll proposes one edge to every other pair (u, x) to exercise filters.
type probeAll struct{}

func (probeAll) Name() string { return "probe-all" }
func (probeAll) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	for x := 0; x < g.N(); x++ {
		if x != u {
			propose(u, x)
		}
	}
}

func TestPushPullActsTwice(t *testing.T) {
	// On K3, node 0's push proposes {1,2} with prob 1/2 (v != w), and pull
	// always proposes an edge (walk never returns to 0 only when w==0;
	// w==0 with prob 1/2). So expected proposals per Act is 1/2 + 1/2 = 1;
	// max is 2.
	g := gen.Complete(3)
	r := rng.New(16)
	total := 0
	const draws = 30000
	for i := 0; i < draws; i++ {
		es := collect(PushPull{}, g, 0, r)
		if len(es) > 2 {
			t.Fatalf("push-pull proposed %d edges", len(es))
		}
		total += len(es)
	}
	mean := float64(total) / draws
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("push-pull mean proposals %.4f want 1.0", mean)
	}
}
