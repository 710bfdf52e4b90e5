package experiments

import (
	"fmt"
	"io"
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

// sweepFamilies are the workload families E1/E3 sweep over: the sparse
// structures that stress the upper bounds.
var sweepFamilies = []string{"path", "cycle", "star", "bintree", "randtree", "er-sparse"}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Push (triangulation) convergence scaling on sparse families",
		Paper: "Theorem 8: O(n log² n) upper bound",
		Run: func(cfg Config, w io.Writer) error {
			return runUpperBoundSweep(cfg, w, "E1", core.Push{})
		},
	})
	register(Experiment{
		ID:    "E3",
		Title: "Pull (two-hop walk) convergence scaling on sparse families",
		Paper: "Theorem 12: O(n log² n) upper bound",
		Run: func(cfg Config, w io.Writer) error {
			return runUpperBoundSweep(cfg, w, "E3", core.Pull{})
		},
	})
	register(Experiment{
		ID:    "E2",
		Title: "Push rounds on near-complete graphs with k missing edges",
		Paper: "Theorem 9: Ω(n log k) lower bound",
		Run: func(cfg Config, w io.Writer) error {
			return runLowerBoundSweep(cfg, w, "E2", core.Push{})
		},
	})
	register(Experiment{
		ID:    "E4",
		Title: "Pull rounds on near-complete graphs with k missing edges",
		Paper: "Theorem 13: Ω(n log k) lower bound",
		Run: func(cfg Config, w io.Writer) error {
			return runLowerBoundSweep(cfg, w, "E4", core.Pull{})
		},
	})
	register(Experiment{
		ID:    "E9",
		Title: "Minimum-degree growth epochs (the proof engine of Thm 8/12)",
		Paper: "Theorems 8/12 proof structure: δ grows ×(1+1/8) per O(n log n) rounds",
		Run:   runMinDegreeGrowth,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Subgroup discovery: induced k-subsets converge in O(k log² k)",
		Paper: "Section 1/3: subgraph corollary of Theorems 8/12",
		Run:   runSubgroup,
	})
}

// runUpperBoundSweep implements E1/E3: rounds-to-complete across families
// and sizes, with the normalizations the theorems predict to flatten.
func runUpperBoundSweep(cfg Config, w io.Writer, id string, proc core.Process) error {
	cfg = cfg.normalized()
	ns := cfg.sizes(32, 64, 128, 256, 512)
	trials := cfg.trials(16)

	tbl := trace.NewTable(
		fmt.Sprintf("%s: %s process, mean rounds to complete graph (%d trials)", id, proc.Name(), trials),
		"family", "n", "rounds", "ci95", "r/(n ln n)", "r/(n ln² n)")
	type point struct{ n, rounds float64 }
	byFamily := map[string][]point{}

	for _, famName := range sweepFamilies {
		fam, err := gen.FamilyByName(famName)
		if err != nil {
			return err
		}
		for fi, n := range ns {
			if n < fam.MinN {
				continue
			}
			seed := pointSeed(cfg.Seed, uint64(fi), uint64(len(famName)), hashName(famName))
			sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
				return fam.Generate(n, r)
			}, undirected(proc, cfg.engine()))
			if err != nil {
				return fmt.Errorf("%s %s n=%d: %w", id, famName, n, err)
			}
			fn := float64(n)
			byFamily[famName] = append(byFamily[famName], point{fn, sum.Mean})
			tbl.AddRow(famName, trace.I(n),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/stats.NLogN(fn), 3),
				trace.F(sum.Mean/stats.NLog2N(fn), 3))
		}
	}
	if err := render(cfg, w, tbl); err != nil {
		return err
	}

	fit := trace.NewTable(
		fmt.Sprintf("%s: log-log scaling exponents (Θ(n·polylog n) ⇒ exponent slightly above 1)", id),
		"family", "exponent", "R²")
	for _, famName := range sweepFamilies {
		pts := byFamily[famName]
		if len(pts) < 2 {
			continue
		}
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.n, p.rounds
		}
		exp, r2 := stats.LogLogSlope(xs, ys)
		fit.AddRow(famName, trace.F(exp, 3), trace.F(r2, 4))
	}
	return render(cfg, w, fit)
}

// runLowerBoundSweep implements E2/E4: K_n minus k random edges; Theorems
// 9/13 predict Ω(n log k) rounds, i.e. rounds/(n·ln k) bounded away from 0.
func runLowerBoundSweep(cfg Config, w io.Writer, id string, proc core.Process) error {
	cfg = cfg.normalized()
	ns := cfg.sizes(64, 128, 256)
	ks := []int{1, 8, 64, 512}
	trials := cfg.trials(12)

	tbl := trace.NewTable(
		fmt.Sprintf("%s: %s on K_n minus k edges, mean rounds (%d trials)", id, proc.Name(), trials),
		"n", "k", "rounds", "ci95", "r/(n·ln(k+1))", "r/n")
	for ni, n := range ns {
		for ki, k := range ks {
			if k > n*(n-1)/2-(n-1) {
				continue
			}
			seed := pointSeed(cfg.Seed, uint64(ni), uint64(ki))
			sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
				return gen.NearComplete(n, k, r)
			}, undirected(proc, cfg.engine()))
			if err != nil {
				return fmt.Errorf("%s n=%d k=%d: %w", id, n, k, err)
			}
			fn := float64(n)
			tbl.AddRow(trace.I(n), trace.I(k),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/(fn*math.Log(float64(k+1))), 3),
				trace.F(sum.Mean/fn, 3))
		}
	}
	return render(cfg, w, tbl)
}

// runMinDegreeGrowth implements E9: it traces δ_t and reports rounds per
// ×1.125 growth epoch, normalized by n·ln n — the quantity the proofs of
// Theorems 8 and 12 bound by a constant.
func runMinDegreeGrowth(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ns := cfg.sizes(64, 128, 256)
	trials := cfg.trials(8)

	for _, procName := range []string{"push", "pull"} {
		var proc core.Process = core.Push{}
		if procName == "pull" {
			proc = core.Pull{}
		}
		tbl := trace.NewTable(
			fmt.Sprintf("E9: %s, rounds per ×1.125 min-degree epoch on the n-cycle (%d trials)", procName, trials),
			"n", "epochs", "max epoch rounds", "mean epoch rounds", "max/(n ln n)")
		for ni, n := range ns {
			seed := pointSeed(cfg.Seed, uint64(ni), hashName(procName))
			// Each trial returns its growth epochs, or nil if it did not
			// converge (GrowthEpochs is never empty).
			epochsByTrial := sim.Trials(cfg.TrialWorkers, trials, seed, cycleBuilder(n), func(g *graph.Undirected, r *rng.Rand) []int {
				traj := &metrics.Trajectory{}
				s := sim.NewSession(g, proc, r, cfg.engine())
				defer s.Close()
				s.Subscribe(traj)
				if !s.Run().Converged {
					return nil
				}
				return traj.GrowthEpochs(2, n)
			})
			var maxEpoch, sumEpoch, epochCount float64
			var epochsLen int
			for _, epochs := range epochsByTrial {
				if epochs == nil {
					return fmt.Errorf("E9 n=%d: run did not converge", n)
				}
				epochsLen = len(epochs)
				prev := 0
				for _, e := range epochs {
					if e < 0 {
						continue
					}
					d := float64(e - prev)
					prev = e
					sumEpoch += d
					epochCount++
					if d > maxEpoch {
						maxEpoch = d
					}
				}
			}
			fn := float64(n)
			tbl.AddRow(trace.I(n), trace.I(epochsLen),
				trace.F(maxEpoch, 0),
				trace.F(sumEpoch/epochCount, 1),
				trace.F(maxEpoch/stats.NLogN(fn), 3))
		}
		if err := render(cfg, w, tbl); err != nil {
			return err
		}
	}
	return nil
}

// runSubgroup implements E10: a connected induced k-subset of a larger
// social graph runs the process among themselves; Theorems 8/12 applied to
// the subgraph give O(k log² k).
func runSubgroup(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ks := cfg.sizes(8, 16, 32, 64, 128)
	trials := cfg.trials(12)
	const hostN = 512

	for _, procName := range []string{"push", "pull"} {
		var proc core.Process = core.Push{}
		if procName == "pull" {
			proc = core.Pull{}
		}
		tbl := trace.NewTable(
			fmt.Sprintf("E10: %s restricted to induced k-subsets of a %d-node host graph (%d trials)",
				procName, hostN, trials),
			"k", "rounds", "ci95", "r/(k ln k)", "r/(k ln² k)", "r90 edges", "r90/rounds")
		for ki, k := range ks {
			seed := pointSeed(cfg.Seed, uint64(ki), hashName(procName))
			// TrialsAggregate yields the same per-trial Results as a plain
			// sim.Run per trial plus the cross-trial per-round aggregates of
			// the trials' trajectories. The r90 column
			// (first round with 90% of all pairs known, on average) shows
			// the coupon-collector tail: the bulk of discovery finishes in
			// a small fraction of the convergence time.
			results, agg := metrics.TrialsAggregate(cfg.TrialWorkers, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
				host := gen.TwoClustersBridge(hostN, 6.0/float64(hostN), r)
				return inducedConnectedSubset(host, k, r)
			}, proc, cfg.engine())
			rounds, err := resultRounds(results)
			if err != nil {
				return fmt.Errorf("E10 k=%d: %w", k, err)
			}
			sum := stats.Summarize(rounds)
			r90 := metrics.RoundAtEdgeFraction(agg, 0.9)
			fk := float64(k)
			tbl.AddRow(trace.I(k),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/stats.NLogN(fk), 3),
				trace.F(sum.Mean/stats.NLog2N(fk), 3),
				trace.I(r90),
				trace.F(float64(r90)/sum.Mean, 3))
		}
		if err := render(cfg, w, tbl); err != nil {
			return err
		}
	}
	return nil
}

// inducedConnectedSubset grows a BFS ball from a random node until it holds
// k nodes, then returns the induced (connected) subgraph.
func inducedConnectedSubset(host *graph.Undirected, k int, r *rng.Rand) *graph.Undirected {
	start := r.Intn(host.N())
	picked := make([]int, 0, k)
	seen := make(map[int]bool, k)
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 && len(picked) < k {
		u := queue[0]
		queue = queue[1:]
		picked = append(picked, u)
		for _, v := range host.Neighbors(u, nil) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return host.InducedSubgraph(picked)
}

// hashName folds a string into a seed coordinate.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
