package sim

import (
	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// RunAsync is the reference loop of the asynchronous model: at every tick
// one uniformly random node activates, which discretizes one rate-1
// Poisson clock per node, so n ticks ≈ one parallel round. The runtime for
// that model is internal/eventsim; eventsim's TestEventMatchesTickExactly
// checks that a uniform run there makes exactly this loop's activations.

// AsyncResult reports an asynchronous run.
type AsyncResult struct {
	// Ticks is the number of single-node activations executed.
	Ticks int
	// ParallelRounds is Ticks / n, the synchronous-comparable time.
	ParallelRounds float64
	// Converged reports whether the Done predicate was reached.
	Converged bool
	// BudgetExhausted reports that the run stopped because the MaxTicks
	// budget ran out before Done fired (the same contract as
	// eventsim.Result.BudgetExhausted).
	BudgetExhausted bool
	// Proposals and NewEdges mirror Result.
	Proposals int
	NewEdges  int
}

// AsyncConfig controls an asynchronous run.
type AsyncConfig struct {
	// MaxTicks bounds the run: a value <= 0 selects the default budget of
	// n × DefaultMaxRounds(n) ticks (saturating, see ActivationBudget); a
	// positive budget that runs out stops the run exactly at MaxTicks
	// ticks with BudgetExhausted set.
	MaxTicks int
	// Done overrides the convergence predicate (default: complete graph).
	// It is tested before the first tick and after every tick.
	Done func(g *graph.Undirected) bool
}

// RunAsync executes p under the uniform single-activation scheduler until
// Done fires or the tick budget is exhausted.
func RunAsync(g *graph.Undirected, p core.Process, r *rng.Rand, cfg AsyncConfig) AsyncResult {
	n := g.N()
	budget := cfg.MaxTicks
	if budget <= 0 {
		budget = ActivationBudget(DefaultMaxRounds(n), n)
	}
	done := cfg.Done
	if done == nil {
		done = (*graph.Undirected).IsComplete
	}
	res := AsyncResult{Converged: done(g)}
	if res.Converged || n == 0 {
		return res
	}
	propose := func(a, b int) {
		res.Proposals++
		if g.AddEdge(a, b) {
			res.NewEdges++
		}
	}
	for !res.Converged && res.Ticks < budget {
		res.Ticks++
		u := r.Intn(n)
		p.Act(g, u, r, propose)
		res.Converged = done(g)
	}
	res.BudgetExhausted = !res.Converged
	res.ParallelRounds = float64(res.Ticks) / float64(n)
	return res
}
