package sim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

func TestRunAsyncConverges(t *testing.T) {
	g := gen.Path(16)
	res := RunAsync(g, core.Push{}, rng.New(1), AsyncConfig{})
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("async push did not converge: %+v", res)
	}
	if res.Ticks <= 0 || res.ParallelRounds <= 0 {
		t.Fatalf("bad accounting: %+v", res)
	}
	if res.ParallelRounds != float64(res.Ticks)/16 {
		t.Fatalf("parallel rounds mismatch: %+v", res)
	}
}

func TestRunAsyncAlreadyComplete(t *testing.T) {
	g := gen.Complete(5)
	res := RunAsync(g, core.Pull{}, rng.New(2), AsyncConfig{})
	if !res.Converged || res.Ticks != 0 {
		t.Fatalf("complete async run: %+v", res)
	}
}

func TestRunAsyncAbort(t *testing.T) {
	g := gen.Path(16)
	res := RunAsync(g, core.Wrap(core.Push{}, core.Fail(1)), rng.New(3),
		AsyncConfig{MaxTicks: 100})
	if res.Converged || res.Ticks != 100 || res.NewEdges != 0 {
		t.Fatalf("aborted async run: %+v", res)
	}
}

func TestRunAsyncCustomDone(t *testing.T) {
	g := gen.Cycle(12)
	res := RunAsync(g, core.Push{}, rng.New(4), AsyncConfig{
		Done: func(g *graph.Undirected) bool { return g.MinDegree() >= 4 },
	})
	if !res.Converged || g.MinDegree() < 4 {
		t.Fatalf("async custom done: %+v", res)
	}
}

// TestAsyncMaxTicksBudgetContract is the satellite table pinning
// AsyncConfig.MaxTicks against Config.MaxRounds's budget contract, tick for
// round: 0 selects the default budget (n × DefaultMaxRounds(n)), any
// negative value means unbounded for a stepped session while the RunAsync
// facade folds it back to the default, and a positive budget that runs out
// stops the run at exactly MaxTicks with the explicit BudgetExhausted flag
// raised (and Converged == false). TestEventBudgetContract pins the same
// contract on the event runtime's Config.MaxEvents.
func TestAsyncMaxTicksBudgetContract(t *testing.T) {
	const n = 4
	defaultBudget := n * DefaultMaxRounds(n)
	never := func(g *graph.Undirected) bool { return false }

	t.Run("zero selects the default budget", func(t *testing.T) {
		res := RunAsync(gen.Complete(n), core.Push{}, rng.New(1), AsyncConfig{Done: never})
		if res.Converged || res.Ticks != defaultBudget || !res.BudgetExhausted {
			t.Fatalf("got %d ticks (converged=%v exhausted=%v), want the default budget %d exhausted",
				res.Ticks, res.Converged, res.BudgetExhausted, defaultBudget)
		}
	})

	t.Run("negative means unbounded for sessions", func(t *testing.T) {
		// Done fires strictly beyond the default budget: only an unbounded
		// session can get there. Every negative value — not just -1 —
		// normalizes the same way.
		for _, maxTicks := range []int{-1, -9} {
			calls := 0
			s := NewAsyncSession(gen.Complete(n), core.Push{}, rng.New(1), AsyncConfig{
				MaxTicks: maxTicks,
				Done: func(g *graph.Undirected) bool {
					calls++
					return calls > defaultBudget+999
				},
			})
			res := s.Run()
			if !res.Converged || res.Ticks <= defaultBudget {
				t.Fatalf("MaxTicks=%d: %d ticks (converged=%v), want convergence beyond %d",
					maxTicks, res.Ticks, res.Converged, defaultBudget)
			}
			if res.BudgetExhausted {
				t.Fatalf("MaxTicks=%d: unbounded session reported BudgetExhausted", maxTicks)
			}
		}
	})

	t.Run("facade folds negatives to the default budget", func(t *testing.T) {
		res := RunAsync(gen.Complete(n), core.Push{}, rng.New(1),
			AsyncConfig{MaxTicks: -5, Done: never})
		if res.Converged || res.Ticks != defaultBudget || !res.BudgetExhausted {
			t.Fatalf("got %d ticks (converged=%v exhausted=%v), want the default budget %d exhausted",
				res.Ticks, res.Converged, res.BudgetExhausted, defaultBudget)
		}
	})

	t.Run("exhausted budget stops exactly at MaxTicks", func(t *testing.T) {
		s := NewAsyncSession(gen.Complete(n), core.Push{}, rng.New(1),
			AsyncConfig{MaxTicks: 37, Done: never})
		res := s.Run()
		if res.Converged || res.Ticks != 37 || !res.BudgetExhausted {
			t.Fatalf("got %d ticks (converged=%v exhausted=%v), want exactly 37 exhausted",
				res.Ticks, res.Converged, res.BudgetExhausted)
		}
		if got := res.ParallelRounds; got != 37.0/n {
			t.Fatalf("ParallelRounds %v, want %v", got, 37.0/n)
		}
		if d, ok := s.Step(); d != nil || ok {
			t.Fatalf("Step after exhaustion returned (%v, %v), want (nil, false)", d, ok)
		}
	})

	t.Run("convergence wins over exhaustion", func(t *testing.T) {
		res := RunAsync(gen.Path(8), core.Push{}, rng.New(1), AsyncConfig{})
		if !res.Converged || res.BudgetExhausted {
			t.Fatalf("converged run: %+v", res)
		}
	})
}

func TestAsyncComparableToSync(t *testing.T) {
	// Parallel rounds under the async scheduler should land within a small
	// constant factor of synchronous rounds on the same workload.
	const n = 32
	const trials = 12
	root := rng.New(5)
	asyncMean, syncMean := 0.0, 0.0
	for i := 0; i < trials; i++ {
		r := root.Split()
		g := gen.Cycle(n)
		ar := RunAsync(g, core.Push{}, r, AsyncConfig{})
		if !ar.Converged {
			t.Fatal("async trial failed")
		}
		asyncMean += ar.ParallelRounds

		r2 := root.Split()
		h := gen.Cycle(n)
		sr := Run(h, core.Push{}, r2, Config{})
		if !sr.Converged {
			t.Fatal("sync trial failed")
		}
		syncMean += float64(sr.Rounds)
	}
	asyncMean /= trials
	syncMean /= trials
	ratio := asyncMean / syncMean
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("async/sync ratio %.2f outside [0.3, 3] (async %.1f sync %.1f)",
			ratio, asyncMean, syncMean)
	}
}
