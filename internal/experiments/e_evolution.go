package experiments

import (
	"fmt"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
	"gossipdisc/internal/trace"
)

// evolution implements E17. The paper's social-network motivation asks
// how the structural observables of a network evolve as its members run
// the discovery processes: when clusters (triangles) emerge, how the
// diameter collapses, and how the 1st/2nd/3rd-degree neighborhood sizes —
// the numbers LinkedIn displays per profile — grow and then drain into the
// 1st degree. This experiment traces all of them at fixed fractions of the
// convergence time on a two-community social graph.
func evolution(cfg Config) ([]*trace.Table, error) {
	const n = 96
	trials := cfg.trials(6)
	// Checkpoints as fractions of each trial's own convergence time.
	fractions := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

	var out []*trace.Table
	for _, p := range processes {
		tbl := trace.NewTable(
			fmt.Sprintf("E17: %s on a 2-community graph (n=%d), observables at fractions of convergence time (%d trials)",
				p.name, n, trials),
			"t/T", "diameter", "clustering", "mean |N¹|", "mean |N²|", "mean |N³|")

		// A trial returns its snapshot at each checkpoint it hit, keyed by
		// fraction index, or nil if its probe did not converge.
		results := sim.Trials(cfg.TrialWorkers, trials, pointSeed(cfg.Seed, hashName(p.name), 1717),
			func(trial int, r *rng.Rand) *graph.Undirected {
				return gen.TwoClustersBridge(n, 6.0/float64(n), r)
			}, func(g *graph.Undirected, r *rng.Rand) map[int]metrics.EvolutionSnapshot {
				runSeed := r.Uint64()

				// First pass: measure this trial's convergence time on a
				// clone, then replay the *identical* trajectory (same seed)
				// snapshotting at fixed fractions of it.
				probe := g.Clone()
				probeRes := sim.Run(probe, p.proc, rng.New(runSeed), sim.Config{})
				if !probeRes.Converged {
					return nil
				}
				total := probeRes.Rounds

				marks := make(map[int]int) // round -> fraction index
				for fi, f := range fractions {
					marks[int(f*float64(total)+0.5)] = fi
				}
				at := make(map[int]metrics.EvolutionSnapshot)
				if fi, ok := marks[0]; ok {
					at[fi] = metrics.TakeEvolution(0, g)
					delete(marks, 0)
				}
				// The replay must use the same engine (and so the same rng
				// discipline) as the probe, or the trajectory would differ.
				// Off-checkpoint rounds cost the subscriber a map lookup;
				// the expensive evolution snapshot runs only at the marks.
				observe(g, p.proc, rng.New(runSeed), sim.Config{}, stream.SubscriberFunc(func(e *stream.Event) {
					if fi, ok := marks[e.Delta.Round]; ok {
						at[fi] = metrics.TakeEvolution(e.Delta.Round, e.Graph)
					}
				}))
				return at
			})
		agg := make([]metrics.EvolutionSnapshot, len(fractions))
		counts := make([]int, len(fractions))
		for _, t := range results {
			if t == nil {
				return out, fmt.Errorf("E17 %s: probe did not converge", p.name)
			}
			for fi := range fractions {
				if s, ok := t[fi]; ok {
					agg[fi].Diameter += s.Diameter
					agg[fi].Clustering += s.Clustering
					agg[fi].MeanN1 += s.MeanN1
					agg[fi].MeanN2 += s.MeanN2
					agg[fi].MeanN3 += s.MeanN3
					counts[fi]++
				}
			}
		}
		for fi, f := range fractions {
			c := float64(counts[fi])
			if c == 0 {
				continue
			}
			tbl.AddRow(trace.F(f, 2),
				trace.F(float64(agg[fi].Diameter)/c, 2),
				trace.F(agg[fi].Clustering/c, 3),
				trace.F(agg[fi].MeanN1/c, 1),
				trace.F(agg[fi].MeanN2/c, 1),
				trace.F(agg[fi].MeanN3/c, 1))
		}
		out = append(out, tbl)
	}
	return out, nil
}
