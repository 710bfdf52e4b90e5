package experiments

import (
	"fmt"

	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

// ablation implements E15: the paper's synchronous commit versus the
// eager ablation and the asynchronous model — one rate-1 Poisson clock per
// node on the event-driven runtime (internal/eventsim). All should exhibit
// the same Θ(n·polylog n) scaling with only constant shifts, confirming
// that the reproduction's conclusions do not hinge on scheduler minutiae.
func ablation(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(32, 64, 128, 256)
	trials := cfg.trials(12)
	// The runtimes in column order; sync comes first, as every ratio's
	// denominator.
	runtimes := []string{"sync", "eager", "event"}
	cols := append([]string{"n"}, runtimes...)
	for _, rt := range runtimes[1:] {
		cols = append(cols, rt+"/sync")
	}

	var out []*trace.Table
	for _, p := range processes {
		tbl := trace.NewTable(
			fmt.Sprintf("E15: %s on the n-cycle across schedulers (%d trials, rounds or parallel time)", p.name, trials),
			cols...)
		for ni, n := range ns {
			means := make([]float64, len(runtimes))
			for i, rt := range runtimes {
				seed := pointSeed(cfg.Seed, uint64(ni), hashName(p.name))
				run := undirected(p.proc, sim.Config{})
				switch rt {
				case "eager":
					run = undirected(p.proc, sim.Config{Mode: sim.CommitEager})
				case "event":
					// The event column draws from a seed of its own, so
					// the sync and eager columns keep theirs.
					seed = pointSeed(cfg.Seed, uint64(ni), hashName(p.name), hashName("event"))
					run = func(g *graph.Undirected, r *rng.Rand) outcome {
						res := eventsim.Run(g, p.proc, r, eventsim.Config{})
						return outcome{rounds: res.ParallelRounds, converged: res.Converged}
					}
				}
				sum, err := pointRounds(cfg, trials, seed, cycleBuilder(n), run)
				if err != nil {
					return out, fmt.Errorf("E15 %s n=%d: %w", rt, n, err)
				}
				means[i] = sum.Mean
			}
			row := []string{trace.I(n)}
			for _, m := range means {
				row = append(row, trace.F(m, 1))
			}
			for _, m := range means[1:] {
				row = append(row, trace.F(m/means[0], 3))
			}
			tbl.AddRow(row...)
		}
		out = append(out, tbl)
	}
	return out, nil
}

func cycleBuilder(n int) func(trial int, r *rng.Rand) *graph.Undirected {
	return func(trial int, r *rng.Rand) *graph.Undirected { return gen.Cycle(n) }
}

// concentration implements E16: Theorems 8/12 are with-high-probability
// statements, so the convergence time should concentrate: the ratio of
// extreme quantiles to the median must stay small and shrink-ish with n.
func concentration(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(32, 64, 128, 256)
	trials := cfg.trials(100)

	var out []*trace.Table
	for _, p := range processes {
		tbl := trace.NewTable(
			fmt.Sprintf("E16: %s on the n-cycle, distribution over %d trials", p.name, trials),
			"n", "median", "p10", "p90", "max", "p90/median", "max/median", "r90 edges")
		for ni, n := range ns {
			seed := pointSeed(cfg.Seed, uint64(ni), hashName(p.name), 161616)
			// r90 — the first round at which the trials together hold 90%
			// of all pairs — concentrates even tighter than the
			// convergence time, because the w.h.p. tail is spent on the
			// last few missing pairs.
			rounds, r90, err := edgeRounds(cfg, trials, seed, cycleBuilder(n), p.proc)
			if err != nil {
				return out, fmt.Errorf("E16 n=%d: %w", n, err)
			}
			med := stats.Median(rounds)
			p10 := stats.Quantile(rounds, 0.10)
			p90 := stats.Quantile(rounds, 0.90)
			max := stats.Max(rounds)
			tbl.AddRow(trace.I(n),
				trace.F(med, 0), trace.F(p10, 0), trace.F(p90, 0), trace.F(max, 0),
				trace.F(p90/med, 3), trace.F(max/med, 3),
				trace.I(r90))
		}
		out = append(out, tbl)
	}
	return out, nil
}
