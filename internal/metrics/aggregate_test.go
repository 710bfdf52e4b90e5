package metrics

import (
	"math"
	"reflect"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// runs is sim.Trials' run for process p on engine cfg.
func runs(p core.Process, cfg sim.Config) func(*graph.Undirected, *rng.Rand) sim.Result {
	return func(g *graph.Undirected, r *rng.Rand) sim.Result { return sim.Run(g, p, r, cfg) }
}

// TestTrialsAggregateResultsMatchTrials: tapping the delta streams must not
// perturb the trials — same seed ⇒ the exact Results sim.Trials produces.
func TestTrialsAggregateResultsMatchTrials(t *testing.T) {
	build := func(trial int, r *rng.Rand) *graph.Undirected { return gen.Cycle(48 + 8*trial) }
	want := sim.Trials(0, 5, 99, build, runs(core.Push{}, sim.Config{}))
	got, agg := TrialsAggregate(0, 5, 99, build, core.Push{}, sim.Config{})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trial %d: aggregate run %+v != plain run %+v", i, got[i], want[i])
		}
	}
	if len(agg) == 0 {
		t.Fatal("no aggregates recorded")
	}
}

// TestTrialsAggregateDeterministic: the trial-order merge makes the whole
// aggregate series bit-identical across invocations on a parallel pool.
func TestTrialsAggregateDeterministic(t *testing.T) {
	build := func(trial int, r *rng.Rand) *graph.Undirected { return gen.RandomTree(64, r) }
	_, a := TrialsAggregate(0, 8, 7, build, core.Pull{}, sim.Config{})
	_, b := TrialsAggregate(0, 8, 7, build, core.Pull{}, sim.Config{})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}

// TestTrialsAggregateSingleTrialMatchesTrajectory: with one trial the
// aggregate min-degree series must equal the run's own trajectory,
// recomputed here by a graph-scanning subscriber on a replay of trial 0
// (its generator is the root's first split).
func TestTrialsAggregateSingleTrialMatchesTrajectory(t *testing.T) {
	build := func(trial int, r *rng.Rand) *graph.Undirected { return gen.Path(40) }
	var mins []int
	var edges []int
	s := sim.NewSession(gen.Path(40), core.Push{}, rng.New(5).Split(), sim.Config{})
	s.Subscribe(stream.SubscriberFunc(func(e *stream.Event) {
		mins = append(mins, e.Graph.MinDegree())
		edges = append(edges, e.Graph.M())
	}))
	s.Run()
	s.Close()
	results, agg := TrialsAggregate(0, 1, 5, build, core.Push{}, sim.Config{})
	if !results[0].Converged {
		t.Fatal("trial did not converge")
	}
	if len(agg) != len(mins) {
		t.Fatalf("aggregate length %d != observed rounds %d", len(agg), len(mins))
	}
	pairs := float64(40 * 39 / 2)
	for i, a := range agg {
		if a.MeanMinDegree != float64(mins[i]) {
			t.Fatalf("round %d: aggregate min degree %v != observed %d", i+1, a.MeanMinDegree, mins[i])
		}
		if a.CI95MinDegree != 0 || a.CI95NewEdges != 0 {
			t.Fatalf("round %d: nonzero CI for a single trial", i+1)
		}
		if got, want := a.MeanEdgeFraction, float64(edges[i])/pairs; math.Abs(got-want) > 1e-12 {
			t.Fatalf("round %d: edge fraction %v != %v", i+1, got, want)
		}
		if a.Running != 1 {
			t.Fatalf("round %d: running %d", i+1, a.Running)
		}
	}
	if agg[len(agg)-1].MeanEdgeFraction != 1 {
		t.Fatal("final round not complete")
	}
}

// TestTrialsAggregateTerminalFill: rounds past a trial's convergence must
// still aggregate all trials, with the finished trial contributing its
// terminal state, and Running must shrink to the stragglers.
func TestTrialsAggregateTerminalFill(t *testing.T) {
	// Mixed sizes so trials converge at different rounds.
	build := func(trial int, r *rng.Rand) *graph.Undirected { return gen.Cycle(24 + 24*trial) }
	results, agg := TrialsAggregate(0, 3, 3, build, core.Push{}, sim.Config{})
	shortest, longest := results[0].Rounds, results[0].Rounds
	for _, res := range results {
		if !res.Converged {
			t.Fatalf("trial did not converge: %+v", res)
		}
		if res.Rounds < shortest {
			shortest = res.Rounds
		}
		if res.Rounds > longest {
			longest = res.Rounds
		}
	}
	if shortest == longest {
		t.Skip("trials converged simultaneously; nothing to check")
	}
	if len(agg) != longest {
		t.Fatalf("aggregate length %d != longest trial %d", len(agg), longest)
	}
	last := agg[longest-1]
	if last.Running >= 3 {
		t.Fatalf("final round running %d, want < 3", last.Running)
	}
	if last.MeanEdgeFraction != 1 {
		t.Fatalf("final mean edge fraction %v", last.MeanEdgeFraction)
	}
	// After the shortest trial finished its contribution is pinned at
	// terminal state, so the mean min degree cannot decrease there.
	prev := agg[shortest-1].MeanMinDegree
	for r := shortest; r < longest; r++ {
		if agg[r].MeanMinDegree < prev {
			t.Fatalf("mean min degree decreased at round %d", r+1)
		}
		prev = agg[r].MeanMinDegree
	}
}

// TestTrialsAggregatePoolByteIdentical: the aggregate series and the
// per-trial results are byte-identical for every trial-pool size — the
// strictly sequential pool of one, a small bounded pool, and the default
// GOMAXPROCS pool — over a seed × trial-count matrix. The merge runs in
// trial order after the pool drains, so this holds structurally, not just
// because integer sums commute.
func TestTrialsAggregatePoolByteIdentical(t *testing.T) {
	build := func(trial int, r *rng.Rand) *graph.Undirected {
		return gen.RandomTree(48+8*(trial%3), r)
	}
	for _, seed := range []uint64{3, 99, 12345} {
		for _, numTrials := range []int{1, 5, 16} {
			seqRes, seqAgg := TrialsAggregate(1, numTrials, seed, build, core.Push{}, sim.Config{})
			for _, pool := range []int{3, 0} {
				res, agg := TrialsAggregate(pool, numTrials, seed, build, core.Push{}, sim.Config{})
				if !reflect.DeepEqual(res, seqRes) {
					t.Fatalf("seed=%d trials=%d pool=%d: results differ from sequential", seed, numTrials, pool)
				}
				if !reflect.DeepEqual(agg, seqAgg) {
					t.Fatalf("seed=%d trials=%d pool=%d: aggregate series differs from sequential", seed, numTrials, pool)
				}
			}
		}
	}
}

// TestRoundAtEdgeFraction exercises the helper on a crafted series.
func TestRoundAtEdgeFraction(t *testing.T) {
	agg := []RoundAggregate{
		{Round: 1, MeanEdgeFraction: 0.2},
		{Round: 2, MeanEdgeFraction: 0.7},
		{Round: 3, MeanEdgeFraction: 0.95},
	}
	if got := RoundAtEdgeFraction(agg, 0.9); got != 3 {
		t.Fatalf("RoundAtEdgeFraction(0.9) = %d", got)
	}
	if got := RoundAtEdgeFraction(agg, 0.1); got != 1 {
		t.Fatalf("RoundAtEdgeFraction(0.1) = %d", got)
	}
	if got := RoundAtEdgeFraction(agg, 0.99); got != -1 {
		t.Fatalf("RoundAtEdgeFraction(0.99) = %d", got)
	}
}

// TestTrialsAggregateCustomDoneTerminalFill: with a custom Done a trial can
// end on a sparse graph; the terminal fill must freeze its final observed
// state instead of pretending the graph completed.
func TestTrialsAggregateCustomDoneTerminalFill(t *testing.T) {
	// Trial 0 stops at min degree 4 (sparse); trial 1 runs to completion
	// (larger graph, so it runs longer than trial 0).
	build := func(trial int, r *rng.Rand) *graph.Undirected {
		if trial == 0 {
			return gen.Cycle(24)
		}
		return gen.Cycle(64)
	}
	done := func(g *graph.Undirected) bool {
		if g.N() == 24 {
			return g.MinDegree() >= 4
		}
		return g.IsComplete()
	}
	results, agg := TrialsAggregate(0, 2, 9, build, core.Push{}, sim.Config{Done: done})
	if !results[0].Converged || !results[1].Converged {
		t.Fatalf("trials did not converge: %+v", results)
	}
	if results[0].Rounds >= results[1].Rounds {
		t.Skip("sparse trial outlived the full trial; nothing to check")
	}
	// After trial 0 ends, its frozen contribution is a sparse graph: the
	// mean edge fraction must stay strictly below 1 until the last round
	// of trial 1, where trial 1 is complete but trial 0 is not.
	last := agg[len(agg)-1]
	if last.MeanEdgeFraction >= 1 {
		t.Fatalf("terminal fill pretended the custom-Done trial completed: fraction %v", last.MeanEdgeFraction)
	}
	if last.MeanMinDegree >= float64(63) {
		t.Fatalf("terminal fill inflated min degree: %v", last.MeanMinDegree)
	}
}
