package experiments

import (
	"fmt"
	"io"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
	"gossipdisc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Social-network evolution: diameter, clustering, N¹/N²/N³ profiles",
		Paper: "Section 1: \"how do clusters emerge? how does the diameter change with time?\"",
		Run:   runEvolution,
	})
}

// runEvolution implements E17. The paper's social-network motivation asks
// how the structural observables of a network evolve as its members run
// the discovery processes: when clusters (triangles) emerge, how the
// diameter collapses, and how the 1st/2nd/3rd-degree neighborhood sizes —
// the numbers LinkedIn displays per profile — grow and then drain into the
// 1st degree. This experiment traces all of them at fixed fractions of the
// convergence time on a two-community social graph.
func runEvolution(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	const n = 96
	trials := cfg.trials(6)
	// Checkpoints as fractions of each trial's own convergence time.
	fractions := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

	for _, procName := range []string{"push", "pull"} {
		proc := plainProcByName(procName)
		tbl := trace.NewTable(
			fmt.Sprintf("E17: %s on a 2-community graph (n=%d), observables at fractions of convergence time (%d trials)",
				procName, n, trials),
			"t/T", "diameter", "clustering", "mean |N¹|", "mean |N²|", "mean |N³|")

		// A trial returns its snapshot at each checkpoint it hit, keyed by
		// fraction index.
		type checkpoints struct {
			at        map[int]metrics.EvolutionSnapshot
			converged bool
		}
		results := sim.Trials(cfg.TrialWorkers, trials, pointSeed(cfg.Seed, hashName(procName), 1717),
			func(trial int, r *rng.Rand) *graph.Undirected {
				return gen.TwoClustersBridge(n, 6.0/float64(n), r)
			}, func(g *graph.Undirected, r *rng.Rand) checkpoints {
				runSeed := r.Uint64()

				// First pass: measure this trial's convergence time on a
				// clone, then replay the *identical* trajectory (same seed)
				// snapshotting at fixed fractions of it.
				probe := g.Clone()
				probeRes := sim.Run(probe, proc, rng.New(runSeed), cfg.engine())
				if !probeRes.Converged {
					return checkpoints{}
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
				replay := sim.NewSession(g, proc, rng.New(runSeed), cfg.engine())
				defer replay.Close()
				replay.Subscribe(stream.SubscriberFunc(func(e *stream.Event) {
					if fi, ok := marks[e.Delta.Round]; ok {
						at[fi] = metrics.TakeEvolution(e.Delta.Round, e.Graph)
					}
				}))
				replay.Run()
				return checkpoints{at, true}
			})
		agg := make([]metrics.EvolutionSnapshot, len(fractions))
		counts := make([]int, len(fractions))
		for _, t := range results {
			if !t.converged {
				return fmt.Errorf("E17 %s: probe did not converge", procName)
			}
			for fi := range fractions {
				if s, ok := t.at[fi]; ok {
					addSnapshot(&agg[fi], &counts[fi], s)
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
		if err := render(cfg, w, tbl); err != nil {
			return err
		}
	}
	return nil
}

// addSnapshot accumulates s into agg (diameter summed as float via the
// int field at render time; counts tracks the divisor).
func addSnapshot(agg *metrics.EvolutionSnapshot, count *int, s metrics.EvolutionSnapshot) {
	agg.Diameter += s.Diameter
	agg.Clustering += s.Clustering
	agg.MeanN1 += s.MeanN1
	agg.MeanN2 += s.MeanN2
	agg.MeanN3 += s.MeanN3
	*count++
}
