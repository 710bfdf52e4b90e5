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
	"gossipdisc/internal/stream"
)

// runWith drives a fresh session over g to completion with subs on its bus:
// Run, observed.
func runWith(g *graph.Undirected, p core.Process, r *rng.Rand, cfg Config, subs ...stream.Subscriber) Result {
	s := NewSession(g, p, r, cfg)
	defer s.Close()
	for _, sub := range subs {
		s.Subscribe(sub)
	}
	return s.Run()
}

// runDirectedWith is runWith for a directed session.
func runDirectedWith(g *graph.Directed, p core.DirectedProcess, r *rng.Rand, cfg DirectedConfig, subs ...stream.Subscriber) DirectedResult {
	s := NewDirectedSession(g, p, r, cfg)
	defer s.Close()
	for _, sub := range subs {
		s.Subscribe(sub)
	}
	return s.Run()
}

func TestRunPushPathToComplete(t *testing.T) {
	g := gen.Path(8)
	res := Run(g, core.Push{}, rng.New(1), Config{})
	if !res.Converged {
		t.Fatalf("push did not converge: %+v", res)
	}
	if !g.IsComplete() {
		t.Fatal("graph not complete after convergence")
	}
	if res.NewEdges != 8*7/2-7 {
		t.Fatalf("NewEdges %d want %d", res.NewEdges, 8*7/2-7)
	}
	if res.Proposals < res.NewEdges {
		t.Fatal("proposals fewer than new edges")
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
	if !res.Converged {
		t.Fatalf("custom done not reached: %+v", res)
	}
	if g.MinDegree() < 3 {
		t.Fatal("done predicate violated at exit")
	}
	if g.IsComplete() {
		t.Fatal("run went past custom done")
	}
}

func TestObserverSeesEveryRound(t *testing.T) {
	g := gen.Path(6)
	var rounds []int
	lastM := g.M()
	monotone := true
	res := runWith(g, core.Push{}, rng.New(6), Config{}, stream.SubscriberFunc(func(e *stream.Event) {
		rounds = append(rounds, e.Delta.Round)
		if e.Graph.M() < lastM {
			monotone = false
		}
		lastM = e.Graph.M()
	}))
	if len(rounds) != res.Rounds {
		t.Fatalf("observer called %d times for %d rounds", len(rounds), res.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("observer rounds %v", rounds)
		}
	}
	if !monotone {
		t.Fatal("edge count decreased during run")
	}
}

// syncProbe proposes (u, u+1 mod n) and records the graph's edge count at
// Act time; in synchronous mode no Act within one round may observe another
// proposal of the same round.
type syncProbe struct {
	observedM []int
}

func (s *syncProbe) Name() string { return "sync-probe" }
func (s *syncProbe) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	s.observedM = append(s.observedM, g.M())
	propose(u, (u+1)%g.N())
}

func TestSynchronousCommitSemantics(t *testing.T) {
	// Start from a star; the probe proposes the cycle edges. In sync mode
	// every node must observe the same round-start edge count.
	g := gen.Star(6)
	p := &syncProbe{}
	Run(g, p, rng.New(7), Config{MaxRounds: 1})
	if len(p.observedM) != 6 {
		t.Fatalf("probe acted %d times", len(p.observedM))
	}
	for _, m := range p.observedM {
		if m != 5 {
			t.Fatalf("sync mode: node observed mid-round edge count %d (want 5): %v", m, p.observedM)
		}
	}
	// All proposed cycle edges must be present afterwards.
	for u := 0; u < 6; u++ {
		if !g.HasEdge(u, (u+1)%6) {
			t.Fatalf("edge %d-%d missing after commit", u, (u+1)%6)
		}
	}
}

func TestEagerCommitSemantics(t *testing.T) {
	g := gen.Star(6)
	p := &syncProbe{}
	Run(g, p, rng.New(8), Config{MaxRounds: 1, Mode: CommitEager})
	// Later nodes must see earlier insertions: observed counts increase.
	increased := false
	for i := 1; i < len(p.observedM); i++ {
		if p.observedM[i] > p.observedM[i-1] {
			increased = true
		}
	}
	if !increased {
		t.Fatalf("eager mode: no mid-round visibility: %v", p.observedM)
	}
}

func TestDuplicateAccounting(t *testing.T) {
	// probe proposes the same edge from every node: 1 new + n-1 duplicates
	// in round one.
	g := gen.Star(4)
	p := fixedProbe{}
	res := Run(g, p, rng.New(9), Config{MaxRounds: 1})
	if res.NewEdges != 1 || res.DuplicateProposals != 3 || res.Proposals != 4 {
		t.Fatalf("duplicate accounting: %+v", res)
	}
}

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

// TestDefaultMaxRoundsBitLength pins the bits.Len-based budgets to the
// hand-rolled shift loop they replaced: returned budgets must be identical
// for every n, since MaxRounds feeds seeded runs. Past math.MaxInt both
// saturate instead of wrapping: a 32-bit int wraps the undirected budget
// from n = 20 000 and the directed one from n = 1000, a 64-bit int the
// directed one from about n = 2.6e7.
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
	for _, workers := range []int{0, 4} {
		g := gen.DirectedCycle(48)
		m0 := g.M()
		target := g.ClosureArcCount()
		// Stop when 90% of the initially missing closure arcs are present.
		goal := m0 + (9*(target-m0)+9)/10
		res := RunDirected(g, core.DirectedTwoHop{}, rng.New(17), DirectedConfig{
			Workers: workers,
			Done:    func(g *graph.Directed) bool { return g.M() >= goal },
		})
		if !res.Converged {
			t.Fatalf("Workers=%d: 90%%-closure run did not converge: %+v", workers, res)
		}
		if g.M() < goal {
			t.Fatalf("Workers=%d: done fired with %d arcs, goal %d", workers, g.M(), goal)
		}
		if g.IsClosed() {
			t.Fatalf("Workers=%d: run went all the way to closure despite Done", workers)
		}
		if res.TargetArcs != target {
			t.Fatalf("Workers=%d: TargetArcs %d want %d", workers, res.TargetArcs, target)
		}
	}
}

// TestRunDirectedCustomDoneAtEntry: a Done already satisfied at entry must
// return without consuming generator output, as the default predicate does.
func TestRunDirectedCustomDoneAtEntry(t *testing.T) {
	g := gen.DirectedCycle(8)
	r := rng.New(3)
	before := *r
	res := RunDirected(g, core.DirectedTwoHop{}, r, DirectedConfig{
		Done: func(g *graph.Directed) bool { return true },
	})
	if !res.Converged || res.Rounds != 0 || res.Proposals != 0 {
		t.Fatalf("entry-done run: %+v", res)
	}
	if *r != before {
		t.Fatal("entry-done run consumed generator output")
	}
}

func TestRunDirectedCycleToCompleteDigraph(t *testing.T) {
	n := 8
	g := gen.DirectedCycle(n)
	res := RunDirected(g, core.DirectedTwoHop{}, rng.New(10), DirectedConfig{})
	if !res.Converged {
		t.Fatalf("directed run did not converge: %+v", res)
	}
	if res.TargetArcs != n*(n-1) {
		t.Fatalf("target arcs %d want %d", res.TargetArcs, n*(n-1))
	}
	if !g.IsClosed() {
		t.Fatal("graph not closed after convergence")
	}
	if g.M() != n*(n-1) {
		t.Fatalf("cycle closure should be complete digraph, m=%d", g.M())
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
	g := gen.Thm14WeakLowerBound(16)
	calls := 0
	res := runDirectedWith(g, core.WrapDirected(core.DirectedTwoHop{}, core.Fail(1)),
		rng.New(14), DirectedConfig{MaxRounds: 7}, stream.SubscriberFunc(func(*stream.Event) { calls++ }))
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
		runDirectedWith(g, core.DirectedTwoHop{}, r, DirectedConfig{MaxRounds: 20},
			stream.SubscriberFunc(func(e *stream.Event) {
				if e.Digraph.ClosureArcCount() != before {
					ok = false
				}
			}))
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
