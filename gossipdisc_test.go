package gossipdisc_test

import (
	"math"
	"math/bits"
	"testing"

	"gossipdisc"
	"gossipdisc/internal/core"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

func TestQuickstartFlow(t *testing.T) {
	g := gossipdisc.Cycle(32)
	res := gossipdisc.Run(g, gossipdisc.Push{}, 42)
	if !res.Converged {
		t.Fatalf("push did not converge: %+v", res)
	}
	if !g.IsComplete() {
		t.Fatal("graph not complete")
	}
}

func TestPullFacade(t *testing.T) {
	g := gossipdisc.Path(20)
	res := gossipdisc.Run(g, gossipdisc.Pull{}, 7)
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("pull facade failed: %+v", res)
	}
}

func TestWithDoneCustomPredicate(t *testing.T) {
	g := gossipdisc.Path(20)
	res := gossipdisc.NewSession(g, gossipdisc.WithDone(func(g *gossipdisc.Graph) bool { return g.MinDegree() >= 4 })).Run()
	if !res.Converged || g.MinDegree() < 4 {
		t.Fatalf("custom done failed: %+v", res)
	}
}

func TestDirectedFacade(t *testing.T) {
	g := gossipdisc.DirectedCycle(10)
	res := gossipdisc.RunDirected(g, 3)
	if !res.Converged || !g.IsClosed() {
		t.Fatalf("directed facade failed: %+v", res)
	}
	if res.TargetArcs != 10*9 {
		t.Fatalf("target arcs %d", res.TargetArcs)
	}
}

func TestThm15GraphExported(t *testing.T) {
	g := gossipdisc.Thm15Graph(12)
	if !g.IsStronglyConnected() {
		t.Fatal("Thm15 graph not strongly connected")
	}
	res := gossipdisc.RunDirected(g, 5)
	if !res.Converged {
		t.Fatalf("Thm15 run did not converge: %+v", res)
	}
}

func TestTrialsFacade(t *testing.T) {
	results := gossipdisc.Trials(6, 9, func(trial int, r *gossipdisc.Rand) *gossipdisc.Graph {
		return gossipdisc.RandomTree(16, r)
	}, gossipdisc.Push{})
	if len(results) != 6 {
		t.Fatalf("trial count %d", len(results))
	}
	for i, res := range results {
		if !res.Converged {
			t.Fatalf("trial %d did not converge", i)
		}
	}
}

func TestExactExpectedRounds(t *testing.T) {
	// Path P3 under push: exactly 2 expected rounds (see internal/markov).
	got := gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "push")
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("exact push P3 = %v want 2", got)
	}
	got = gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "pull")
	if math.Abs(got-4.0/3) > 1e-9 {
		t.Fatalf("exact pull P3 = %v want 4/3", got)
	}
}

func TestExactExpectedRoundsBadKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "flood")
}

func TestGraphConstructors(t *testing.T) {
	if gossipdisc.NewGraph(5).N() != 5 {
		t.Fatal("NewGraph wrong")
	}
	if gossipdisc.NewDigraph(5).N() != 5 {
		t.Fatal("NewDigraph wrong")
	}
	if gossipdisc.Complete(4).MissingEdges() != 0 {
		t.Fatal("Complete wrong")
	}
	if gossipdisc.Star(5).Degree(0) != 4 {
		t.Fatal("Star wrong")
	}
	r := gossipdisc.NewRand(1)
	if g := gossipdisc.ConnectedER(20, 0.2, r); !g.IsConnected() {
		t.Fatal("ConnectedER wrong")
	}
}

func TestFaultyAndPartialExported(t *testing.T) {
	g := gossipdisc.Cycle(16)
	res := gossipdisc.Run(g, gossipdisc.Wrap(gossipdisc.Push{}, gossipdisc.Fail(0.2)), 11)
	if !res.Converged {
		t.Fatal("faulty push did not converge")
	}
	h := gossipdisc.Cycle(16)
	res = gossipdisc.Run(h, gossipdisc.Wrap(gossipdisc.Pull{}, gossipdisc.Participation(0.5)), 12)
	if !res.Converged {
		t.Fatal("partial pull did not converge")
	}
}

func TestCommitModesExported(t *testing.T) {
	g := gossipdisc.Path(12)
	res := gossipdisc.NewSession(g, gossipdisc.WithSeed(13), gossipdisc.WithCommitMode(gossipdisc.CommitEager)).Run()
	if !res.Converged {
		t.Fatal("eager mode did not converge")
	}
	if gossipdisc.CommitSynchronous.String() != "sync" {
		t.Fatal("commit mode aliasing broken")
	}
}

func TestWithWorkersInvariant(t *testing.T) {
	run := func(workers int) (gossipdisc.Result, *gossipdisc.Graph) {
		g := gossipdisc.Cycle(100)
		sess := gossipdisc.NewSession(g, gossipdisc.WithSeed(42), gossipdisc.WithWorkers(workers))
		defer sess.Close()
		return sess.Run(), g
	}
	base, baseG := run(1)
	if !base.Converged || !baseG.IsComplete() {
		t.Fatalf("parallel push did not converge: %+v", base)
	}
	res, g := run(4)
	if res != base || !g.Equal(baseG) {
		t.Fatalf("WithWorkers not worker-count invariant: %+v vs %+v", res, base)
	}
}

func TestNewSessionMatchesRunFacades(t *testing.T) {
	// Zero options: Push from seed 1, sequential engine — exactly Run.
	g1 := gossipdisc.Cycle(48)
	want := gossipdisc.Run(g1, gossipdisc.Push{}, 1)
	g2 := gossipdisc.Cycle(48)
	sess := gossipdisc.NewSession(g2)
	defer sess.Close()
	if got := sess.Run(); got != want || !g2.Equal(g1) {
		t.Fatalf("default session diverged from Run: %+v vs %+v", got, want)
	}

	// WithProcess + WithSeed + WithWorkers reproduces the engine's config.
	g3 := gossipdisc.Cycle(100)
	wantPar := sim.Run(g3, core.Pull{}, rng.New(9), sim.Config{Workers: 4})
	g4 := gossipdisc.Cycle(100)
	par := gossipdisc.NewSession(g4,
		gossipdisc.WithProcess(gossipdisc.Pull{}),
		gossipdisc.WithSeed(9),
		gossipdisc.WithWorkers(4))
	defer par.Close()
	if got := par.Run(); got != wantPar || !g4.Equal(g3) {
		t.Fatalf("parallel session diverged from sim.Run: %+v vs %+v", got, wantPar)
	}
}

func TestNewSessionOptions(t *testing.T) {
	streamed := 0
	g := gossipdisc.Path(24)
	sess := gossipdisc.NewSession(g,
		gossipdisc.WithSeed(5),
		gossipdisc.WithMaxRounds(3),
		gossipdisc.WithCommitMode(gossipdisc.CommitEager),
		gossipdisc.WithAnalyzers(gossipdisc.SubscriberFunc(func(e *gossipdisc.Event) {
			streamed += len(e.Delta.NewEdges)
		})),
		gossipdisc.WithDone(func(g *gossipdisc.Graph) bool { return false }),
	)
	defer sess.Close()
	res := sess.Run()
	if res.Rounds != 3 || res.Converged {
		t.Fatalf("MaxRounds/Done options ignored: %+v", res)
	}
	if streamed != res.NewEdges {
		t.Fatalf("subscriber saw %d edges, result has %d", streamed, res.NewEdges)
	}
}

// TestWithRandOverridesWithSeed: WithRand wins over WithSeed whichever
// comes first — options apply in argument order, so the precedence has to
// be resolved after all of them.
func TestWithRandOverridesWithSeed(t *testing.T) {
	run := func(opts ...gossipdisc.SessionOption) gossipdisc.Result {
		return gossipdisc.NewSession(gossipdisc.Cycle(32), opts...).Run()
	}
	want := run(gossipdisc.WithRand(gossipdisc.NewRand(77)))
	if seeded := run(gossipdisc.WithSeed(1)); seeded == want {
		t.Fatal("seed 1 and the seed-77 generator gave the same run; the rows below prove nothing")
	}
	for name, opts := range map[string][]gossipdisc.SessionOption{
		"rand then seed": {gossipdisc.WithRand(gossipdisc.NewRand(77)), gossipdisc.WithSeed(1)},
		"seed then rand": {gossipdisc.WithSeed(1), gossipdisc.WithRand(gossipdisc.NewRand(77))},
	} {
		if got := run(opts...); got != want {
			t.Errorf("%s: %+v, want the WithRand run %+v", name, got, want)
		}
	}
}

// TestWithMaxRoundsActivationBudgetSaturates: the tick and event sessions
// turn WithMaxRounds into MaxRounds × n activations. At MaxInt/2 + 2 rounds
// (1<<62 + 1 on a 64-bit int) on 4 nodes the plain product wraps to a
// 4-activation budget; saturated, it is effectively unbounded.
func TestWithMaxRoundsActivationBudgetSaturates(t *testing.T) {
	opts := []gossipdisc.SessionOption{
		gossipdisc.WithMaxRounds(1<<(bits.UintSize-2) + 1),
		gossipdisc.WithDone(func(*gossipdisc.Graph) bool { return false }),
	}
	async := gossipdisc.NewAsyncSession(gossipdisc.Path(4), opts...)
	event := gossipdisc.NewEventSession(gossipdisc.Path(4), opts...)
	for i := 0; i < 3; i++ {
		if _, more := async.Step(); !more {
			t.Fatalf("async session stopped after %d ticks: %+v", async.Stats().Ticks, async.Stats())
		}
		if _, more := event.Step(); !more {
			t.Fatalf("event session stopped after %d events: %+v", event.Events(), event.Stats())
		}
	}
}

func TestNewDirectedSessionFacadeParity(t *testing.T) {
	g1 := gossipdisc.DirectedCycle(24)
	want := gossipdisc.RunDirected(g1, 7)
	g2 := gossipdisc.DirectedCycle(24)
	sess := gossipdisc.NewDirectedSession(g2, gossipdisc.WithSeed(7))
	defer sess.Close()
	if got := sess.Run(); got != want || !g2.Equal(g1) {
		t.Fatalf("directed session diverged from RunDirected: %+v vs %+v", got, want)
	}
	if sess.ClosureArcsRemaining() != 0 {
		t.Fatal("closure accessor nonzero at termination")
	}
}

func TestTrialsAggregateFacade(t *testing.T) {
	results, agg := gossipdisc.TrialsAggregate(4, 11, func(trial int, r *gossipdisc.Rand) *gossipdisc.Graph {
		return gossipdisc.Cycle(24)
	}, gossipdisc.Push{})
	if len(results) != 4 || len(agg) == 0 {
		t.Fatalf("aggregate facade shape: %d results, %d rounds", len(results), len(agg))
	}
	if last := agg[len(agg)-1]; last.MeanEdgeFraction != 1 {
		t.Fatalf("final mean edge fraction %v", last.MeanEdgeFraction)
	}
}

func TestDirectedWithWorkersInvariant(t *testing.T) {
	run := func(workers int) gossipdisc.DirectedResult {
		sess := gossipdisc.NewDirectedSession(gossipdisc.DirectedCycle(40), gossipdisc.WithSeed(7), gossipdisc.WithWorkers(workers))
		defer sess.Close()
		return sess.Run()
	}
	base := run(1)
	if !base.Converged || base.TargetArcs != 40*39 {
		t.Fatalf("parallel directed run failed: %+v", base)
	}
	if res := run(4); res != base {
		t.Fatalf("directed WithWorkers not worker-count invariant: %+v vs %+v", res, base)
	}
}

func TestWithDensePhaseOption(t *testing.T) {
	// The option must reach both session families and reproduce the
	// internal config path bit for bit.
	g1 := gossipdisc.Cycle(96)
	s := gossipdisc.NewSession(g1,
		gossipdisc.WithSeed(5),
		gossipdisc.WithWorkers(2),
		gossipdisc.WithDensePhase(0.5),
	)
	defer s.Close()
	res := s.Run()
	if !res.Converged || !g1.IsComplete() {
		t.Fatalf("dense session did not complete: %+v", res)
	}
	g2 := gossipdisc.Cycle(96)
	want := sim.Run(g2, core.Push{}, rng.New(5), sim.Config{Workers: 2, DensePhase: 0.5})
	if res != want {
		t.Fatalf("option path %+v != config path %+v", res, want)
	}

	d := gossipdisc.NewDigraph(24)
	for u := 0; u < 24; u++ {
		d.AddArc(u, (u+1)%24)
	}
	ds := gossipdisc.NewDirectedSession(d, gossipdisc.WithSeed(6), gossipdisc.WithDensePhase(0.5))
	defer ds.Close()
	dres := ds.Run()
	if !dres.Converged || ds.ClosureArcsRemaining() != 0 {
		t.Fatalf("dense directed session did not close: %+v", dres)
	}
}
