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
	if !res.Converged || !g.IsComplete() || res.Ticks <= 0 || res.ParallelRounds != float64(res.Ticks)/16 {
		t.Fatalf("async push on the 16-path: %+v", res)
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

// TestAsyncMaxTicksBudgetContract pins AsyncConfig.MaxTicks to the budget
// contract of Config.MaxRounds, tick for round: a value <= 0 selects n ×
// DefaultMaxRounds(n), and a budget that runs out stops at exactly
// MaxTicks with BudgetExhausted raised and Converged false.
func TestAsyncMaxTicksBudgetContract(t *testing.T) {
	const n = 4
	defaultBudget := n * DefaultMaxRounds(n)
	never := func(g *graph.Undirected) bool { return false }
	exhausted := func(t *testing.T, res AsyncResult, ticks int) {
		t.Helper()
		if res.Converged || res.Ticks != ticks || !res.BudgetExhausted {
			t.Fatalf("got %d ticks (converged=%v exhausted=%v), want %d exhausted", res.Ticks, res.Converged, res.BudgetExhausted, ticks)
		}
	}

	t.Run("zero selects the default budget", func(t *testing.T) {
		exhausted(t, RunAsync(gen.Complete(n), core.Push{}, rng.New(1), AsyncConfig{Done: never}), defaultBudget)
	})

	t.Run("facade folds negatives to the default budget", func(t *testing.T) {
		exhausted(t, RunAsync(gen.Complete(n), core.Push{}, rng.New(1), AsyncConfig{MaxTicks: -5, Done: never}), defaultBudget)
	})

	t.Run("exhausted budget stops exactly at MaxTicks", func(t *testing.T) {
		res := RunAsync(gen.Complete(n), core.Push{}, rng.New(1), AsyncConfig{MaxTicks: 37, Done: never})
		exhausted(t, res, 37)
		if got := res.ParallelRounds; got != 37.0/n {
			t.Fatalf("ParallelRounds %v, want %v", got, 37.0/n)
		}
	})

	t.Run("convergence wins over exhaustion", func(t *testing.T) {
		if res := RunAsync(gen.Path(8), core.Push{}, rng.New(1), AsyncConfig{}); !res.Converged || res.BudgetExhausted {
			t.Fatalf("converged run: %+v", res)
		}
	})
}

// TestAsyncComparableToSync: parallel rounds under the async scheduler
// land within a small constant factor of synchronous rounds on the same
// workload.
func TestAsyncComparableToSync(t *testing.T) {
	const n = 32
	cyc := func(int, *rng.Rand) *graph.Undirected { return gen.Cycle(n) }
	rounds := Trials(0, 12, 5, cyc, func(g *graph.Undirected, r *rng.Rand) [2]float64 {
		ar, sr := RunAsync(g, core.Push{}, r, AsyncConfig{}), Run(gen.Cycle(n), core.Push{}, r, Config{})
		if !ar.Converged || !sr.Converged {
			return [2]float64{-1, -1}
		}
		return [2]float64{ar.ParallelRounds, float64(sr.Rounds)}
	})
	var async, sync float64
	for _, r := range rounds {
		if r[0] < 0 {
			t.Fatal("a trial did not converge")
		}
		async, sync = async+r[0], sync+r[1]
	}
	if ratio := async / sync; ratio < 0.3 || ratio > 3 {
		t.Fatalf("async/sync ratio %.2f outside [0.3, 3] (async %.1f sync %.1f)", ratio, async/12, sync/12)
	}
}
