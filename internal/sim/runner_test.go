package sim

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
	"gossipdisc/internal/stream"
)

// observed runs push on a fresh n-path with a subscriber counting the
// round events: it must see every round once (Invariants checks that they
// come in order and that the edge count never falls).
func observed(t *testing.T, n int, seed uint64, cfg Config) (*graph.Undirected, Result) {
	t.Helper()
	var g *graph.Undirected
	calls := 0
	out := simtest.Run(t, session("path", func() *graph.Undirected { g = gen.Path(n); return g }, core.Push{}, seed, cfg),
		stream.SubscriberFunc(func(*stream.Event) { calls++ }))
	res := out.Result.(Result)
	if calls != res.Rounds {
		t.Fatalf("observer called %d times for %d rounds", calls, res.Rounds)
	}
	return g, res
}

func TestRunPushPathToComplete(t *testing.T) {
	g := gen.Path(8)
	res := Run(g, core.Push{}, rng.New(1), Config{})
	if !res.Converged || !g.IsComplete() || res.NewEdges != 8*7/2-7 || res.Proposals < res.NewEdges {
		t.Fatalf("push on the 8-path: %+v, complete %v, want %d new edges", res, g.IsComplete(), 8*7/2-7)
	}
}

func TestRunPullPathToComplete(t *testing.T) {
	g := gen.Path(8)
	res := Run(g, core.Pull{}, rng.New(2), Config{})
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("pull did not converge: %+v", res)
	}
}

func TestRunAlreadyComplete(t *testing.T) {
	g := gen.Complete(5)
	res := Run(g, core.Push{}, rng.New(3), Config{})
	if !res.Converged || res.Rounds != 0 || res.Proposals != 0 {
		t.Fatalf("complete graph run: %+v", res)
	}
}

func TestRunMaxRoundsAbort(t *testing.T) {
	g := gen.Path(16)
	res := Run(g, core.Wrap(core.Push{}, core.Fail(1)), rng.New(4), Config{MaxRounds: 10})
	if res.Converged || res.Rounds != 10 || res.NewEdges != 0 {
		t.Fatalf("aborted run: %+v", res)
	}
}

func TestRunCustomDone(t *testing.T) {
	g := gen.Path(12)
	res := Run(g, core.Push{}, rng.New(5), Config{
		Done: func(g *graph.Undirected) bool { return g.MinDegree() >= 3 },
	})
	if !res.Converged || g.MinDegree() < 3 || g.IsComplete() {
		t.Fatalf("custom done: %+v, min degree %d, complete %v", res, g.MinDegree(), g.IsComplete())
	}
}

func TestObserverSeesEveryRound(t *testing.T) { observed(t, 6, 6, Config{}) }

func TestSynchronousCommitSemantics(t *testing.T) { checkSynchronous(t, 6, Config{}) }

// TestEagerCommitSemantics: in eager mode later nodes see earlier
// insertions.
func TestEagerCommitSemantics(t *testing.T) {
	if _, m := probeRound(6, Config{Mode: CommitEager}); m[5] <= m[0] {
		t.Fatalf("eager mode: no mid-round visibility: %v", m)
	}
}

func TestDuplicateAccounting(t *testing.T) { checkDuplicates(t, 4, Config{}) }

type fixedProbe struct{}

func (fixedProbe) Name() string { return "fixed-probe" }
func (fixedProbe) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	propose(1, 2)
}

func TestCommitModeString(t *testing.T) {
	if CommitSynchronous.String() != "sync" || CommitEager.String() != "eager" {
		t.Fatal("CommitMode strings wrong")
	}
	if CommitMode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if DefaultMaxRounds(1) != 1 || DefaultMaxRounds(0) != 1 {
		t.Fatal("tiny defaults wrong")
	}
	if DefaultMaxRounds(100) <= 100 {
		t.Fatal("default budget too small")
	}
	if DefaultDirectedMaxRounds(100) <= 100*100 {
		t.Fatal("directed default budget too small")
	}
}

// budgetFormula is 500·n^nPow·(lg+1)^lgPow, computed without overflow and
// clamped to math.MaxInt: the default round budgets' formula.
func budgetFormula(n, lg, nPow, lgPow int) int {
	v := big.NewInt(500)
	for range nPow {
		v.Mul(v, big.NewInt(int64(n)))
	}
	for range lgPow {
		v.Mul(v, big.NewInt(int64(lg+1)))
	}
	if !v.IsInt64() || v.Int64() > math.MaxInt {
		return math.MaxInt
	}
	return int(v.Int64())
}

// TestDefaultMaxRoundsBitLength pins the default budgets to their formula
// with a shift-loop bit length, for every n, since MaxRounds feeds seeded
// runs. Past math.MaxInt both saturate instead of wrapping (on a 32-bit int
// from n = 20 000 undirected and n = 1000 directed).
func TestDefaultMaxRoundsBitLength(t *testing.T) {
	legacyLg := func(n int) int {
		lg := 0
		for v := n; v > 0; v >>= 1 {
			lg++
		}
		return lg
	}
	ns := []int{2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100,
		127, 128, 129, 255, 256, 257, 511, 512, 1023, 1024, 1 << 16, 1<<20 - 1, 1 << 20,
		20_000, 6_000_000, 1 << 25, 1<<31 - 1, math.MaxInt}
	for _, n := range ns {
		lg := legacyLg(n)
		if got, want := DefaultMaxRounds(n), budgetFormula(n, lg, 1, 2); got != want {
			t.Fatalf("DefaultMaxRounds(%d) = %d, legacy loop gives %d", n, got, want)
		}
		if got, want := DefaultDirectedMaxRounds(n), budgetFormula(n, lg, 2, 1); got != want {
			t.Fatalf("DefaultDirectedMaxRounds(%d) = %d, legacy loop gives %d", n, got, want)
		}
	}
}

// TestActivationBudgetSaturates: the default tick/event budget
// n × DefaultMaxRounds(n) passes MaxInt from n = 5 659 117, where the plain
// product wrapped negative and stopped default-budget runs at activation 0.
// The helper saturates there and is the exact product below it.
func TestActivationBudgetSaturates(t *testing.T) {
	const n = 6_000_000 // no graph is built
	if got := ActivationBudget(DefaultMaxRounds(n), n); got != math.MaxInt {
		t.Fatalf("ActivationBudget(DefaultMaxRounds(%d), %d) = %d, want MaxInt", n, n, got)
	}
	if got := ActivationBudget(1<<(bits.UintSize-2)+1, 4); got != math.MaxInt {
		t.Fatalf("ActivationBudget(MaxInt/2+2, 4) = %d, want MaxInt", got)
	}
	// The largest default budget below saturation here: n = 5 000 000 on a
	// 64-bit int, n = 200 on a 32-bit one.
	fits := 5_000_000
	if bits.UintSize == 32 {
		fits = 200
	}
	for _, c := range [][2]int{{0, n}, {7, 0}, {DefaultMaxRounds(fits), fits}, {math.MaxInt, 1}} {
		if got := ActivationBudget(c[0], c[1]); got != c[0]*c[1] {
			t.Fatalf("ActivationBudget(%d, %d) = %d, want %d", c[0], c[1], got, c[0]*c[1])
		}
	}
}

// TestDefaultBudgetsSaturate: a default budget on a 20 000-node cycle runs
// its first round. With a 32-bit int the budget used to wrap negative, and
// the session stopped before round 1.
func TestDefaultBudgetsSaturate(t *testing.T) {
	s := NewSession(gen.Cycle(20_000, graph.BackendSparse), core.Push{}, rng.New(1), Config{})
	defer s.Close()
	if _, ok := s.Step(); !ok || s.Round() != 1 {
		t.Fatalf("default-budget session on a 20 000-cycle: ok=%v after %d rounds", ok, s.Round())
	}
}

// TestRunDirectedCustomDone: the new DirectedConfig.Done override (API
// parity with Config.Done) stops the run at 90% closure, on both engine
// families.
func TestRunDirectedCustomDone(t *testing.T) {
	g := gen.DirectedCycle(48)
	m0 := g.M()
	target := g.ClosureArcCount()
	// Stop when 90% of the initially missing closure arcs are present.
	goal := m0 + (9*(target-m0)+9)/10
	res := RunDirected(g, core.DirectedTwoHop{}, rng.New(17), DirectedConfig{
		Done: func(g *graph.Directed) bool { return g.M() >= goal },
	})
	if !res.Converged || g.M() < goal || g.IsClosed() || res.TargetArcs != target {
		t.Fatalf("%+v with %d arcs, goal %d, closed %v, target %d", res, g.M(), goal, g.IsClosed(), target)
	}
}

// TestRunDirectedCustomDoneAtEntry: a Done already satisfied at entry must
// return without consuming generator output, as the default predicate does.
func TestRunDirectedCustomDoneAtEntry(t *testing.T) {
	r := rng.New(3)
	before := *r
	res := RunDirected(gen.DirectedCycle(8), core.DirectedTwoHop{}, r, DirectedConfig{
		Done: func(g *graph.Directed) bool { return true },
	})
	if !res.Converged || res.Rounds != 0 || res.Proposals != 0 || *r != before {
		t.Fatalf("entry-done run: %+v, generator untouched %v", res, *r == before)
	}
}

func TestRunDirectedCycleToCompleteDigraph(t *testing.T) {
	const n = 8
	g := gen.DirectedCycle(n)
	res := RunDirected(g, core.DirectedTwoHop{}, rng.New(10), DirectedConfig{})
	if !res.Converged || res.TargetArcs != n*(n-1) || !g.IsClosed() || g.M() != n*(n-1) {
		t.Fatalf("directed cycle: %+v, %d arcs, want the complete digraph's %d", res, g.M(), n*(n-1))
	}
}

func TestRunDirectedAlreadyClosed(t *testing.T) {
	g := gen.CompleteDigraph(5)
	res := RunDirected(g, core.DirectedTwoHop{}, rng.New(11), DirectedConfig{})
	if !res.Converged || res.Rounds != 0 {
		t.Fatalf("closed run: %+v", res)
	}
}

func TestRunDirectedPathClosure(t *testing.T) {
	g := gen.DirectedPath(5)
	res := RunDirected(g, core.DirectedTwoHop{}, rng.New(12), DirectedConfig{})
	if !res.Converged {
		t.Fatalf("path closure: %+v", res)
	}
	// Path closure: all (i, j) with i < j.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := i < j
			if g.HasArc(i, j) != want {
				t.Fatalf("arc (%d,%d) presence %v want %v", i, j, g.HasArc(i, j), want)
			}
		}
	}
}

func TestRunDirectedEagerMode(t *testing.T) {
	g := gen.DirectedCycle(6)
	res := RunDirected(g, core.DirectedTwoHop{}, rng.New(13), DirectedConfig{Mode: CommitEager})
	if !res.Converged || !g.IsClosed() {
		t.Fatalf("eager directed run: %+v", res)
	}
}

func TestRunDirectedObserverAndAbort(t *testing.T) {
	calls := 0
	row := directed("failing", func() *graph.Directed { return gen.Thm14WeakLowerBound(16) },
		core.WrapDirected(core.DirectedTwoHop{}, core.Fail(1)), 14, DirectedConfig{MaxRounds: 7})
	res := simtest.Run(t, row, stream.SubscriberFunc(func(*stream.Event) { calls++ })).Result.(DirectedResult)
	if res.Converged || res.Rounds != 7 || calls != 7 {
		t.Fatalf("aborted directed run: %+v calls=%d", res, calls)
	}
}

// Property: the directed two-hop walk preserves the transitive closure —
// closure(G_t) equals closure(G_0) at every round.
func TestQuickClosureInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(8)
		g := gen.RandomStronglyConnected(n, r.Intn(n), r)
		before := g.ClosureArcCount()
		ok := true
		s := NewDirectedSession(g, core.DirectedTwoHop{}, r, DirectedConfig{MaxRounds: 20})
		s.Subscribe(stream.SubscriberFunc(func(e *stream.Event) { ok = ok && e.Digraph.ClosureArcCount() == before }))
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: in synchronous mode every edge proposed by push/pull joins two
// nodes at distance <= 2 at the start of the round.
func TestQuickProposalsAreTwoHop(t *testing.T) {
	f := func(seed uint64, usePull bool) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(10)
		g := gen.RandomTree(n, r)
		var p core.Process = core.Push{}
		if usePull {
			p = core.Pull{}
		}
		ok := true
		// Drive rounds manually to validate against the round-start graph.
		for round := 0; round < 10 && ok && !g.IsComplete(); round++ {
			snapshot := g.Clone()
			var proposals []graph.Edge
			for u := 0; u < n; u++ {
				p.Act(g, u, r, func(a, b int) {
					proposals = append(proposals, graph.Edge{U: a, V: b})
				})
			}
			for _, e := range proposals {
				d := snapshot.BFSDistances(e.U)[e.V]
				if d < 0 || d > 2 {
					ok = false
				}
				g.AddEdge(e.U, e.V)
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPreservesInvariants(t *testing.T) {
	g := gen.Cycle(10)
	Run(g, core.PushPull{}, rng.New(15), Config{})
	g.CheckInvariants()
	if !g.IsComplete() {
		t.Fatal("push-pull did not complete the cycle")
	}
}
