package experiments

import (
	"fmt"
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

// upperBoundSweep implements E1/E3: rounds-to-complete across families
// and sizes, with the normalizations the theorems predict to flatten.
func upperBoundSweep(id string, proc core.Process) func(Config) ([]*trace.Table, error) {
	return func(cfg Config) ([]*trace.Table, error) {
		ns := cfg.sizes(32, 64, 128, 256, 512)
		trials := cfg.trials(16)

		var points []point
		for _, famName := range sweepFamilies {
			fam, err := gen.FamilyByName(famName)
			if err != nil {
				return nil, err
			}
			for fi, n := range ns {
				if n < fam.MinN {
					continue
				}
				seed := pointSeed(cfg.Seed, uint64(fi), uint64(len(famName)), hashName(famName))
				points = append(points, point{
					cells: []string{famName, trace.I(n)},
					n:     n,
					rounds: measure(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
						return fam.Generate(n, r)
					}, undirected(proc, sim.Config{})),
					tail: func(s stats.Summary) []string {
						fn := float64(n)
						return []string{trace.F(s.Mean/stats.NLogN(fn), 3), trace.F(s.Mean/stats.NLog2N(fn), 3)}
					},
				})
			}
		}
		return scalingTables(fmt.Sprintf("%s: %s process, mean rounds to complete graph (%d trials)", id, proc.Name(), trials),
			[]string{"family", "n", "rounds", "ci95", "r/(n ln n)", "r/(n ln² n)"}, points,
			fmt.Sprintf("%s: log-log scaling exponents (Θ(n·polylog n) ⇒ exponent slightly above 1)", id), true)
	}
}

// lowerBoundSweep implements E2/E4: K_n minus k random edges; Theorems
// 9/13 predict Ω(n log k) rounds, i.e. rounds/(n·ln k) bounded away from 0.
func lowerBoundSweep(id string, proc core.Process) func(Config) ([]*trace.Table, error) {
	return func(cfg Config) ([]*trace.Table, error) {
		ns := cfg.sizes(64, 128, 256)
		ks := []int{1, 8, 64, 512}
		trials := cfg.trials(12)

		var points []point
		for ni, n := range ns {
			for ki, k := range ks {
				if k > n*(n-1)/2-(n-1) {
					continue
				}
				points = append(points, point{
					cells: []string{trace.I(n), trace.I(k)},
					rounds: measure(cfg, trials, pointSeed(cfg.Seed, uint64(ni), uint64(ki)), func(trial int, r *rng.Rand) *graph.Undirected {
						return gen.NearComplete(n, k, r)
					}, undirected(proc, sim.Config{})),
					tail: func(s stats.Summary) []string {
						fn := float64(n)
						return []string{trace.F(s.Mean/(fn*math.Log(float64(k+1))), 3), trace.F(s.Mean/fn, 3)}
					},
				})
			}
		}
		tbl := trace.NewTable(
			fmt.Sprintf("%s: %s on K_n minus k edges, mean rounds (%d trials)", id, proc.Name(), trials),
			"n", "k", "rounds", "ci95", "r/(n·ln(k+1))", "r/n")
		if _, err := sweep(tbl, points); err != nil {
			return nil, err
		}
		return []*trace.Table{tbl}, nil
	}
}

// minDegreeGrowth implements E9: it traces δ_t and reports rounds per
// ×1.125 growth epoch, normalized by n·ln n — the quantity the proofs of
// Theorems 8 and 12 bound by a constant.
func minDegreeGrowth(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(64, 128, 256)
	trials := cfg.trials(8)

	var out []*trace.Table
	for _, p := range processes {
		tbl := trace.NewTable(
			fmt.Sprintf("E9: %s, rounds per ×1.125 min-degree epoch on the n-cycle (%d trials)", p.name, trials),
			"n", "epochs", "max epoch rounds", "mean epoch rounds", "max/(n ln n)")
		for ni, n := range ns {
			seed := pointSeed(cfg.Seed, uint64(ni), hashName(p.name))
			// Each trial returns its growth epochs, or nil if it did not
			// converge (GrowthEpochs is never empty).
			epochsByTrial := sim.Trials(cfg.TrialWorkers, trials, seed, cycleBuilder(n), func(g *graph.Undirected, r *rng.Rand) []int {
				traj := &metrics.Trajectory{}
				if !observe(g, p.proc, r, sim.Config{}, traj).Converged {
					return nil
				}
				return traj.GrowthEpochs(2, n)
			})
			var maxEpoch, sumEpoch, epochCount float64
			var epochsLen int
			for _, epochs := range epochsByTrial {
				if epochs == nil {
					return out, fmt.Errorf("E9 n=%d: run did not converge", n)
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
					maxEpoch = max(maxEpoch, d)
				}
			}
			fn := float64(n)
			tbl.AddRow(trace.I(n), trace.I(epochsLen),
				trace.F(maxEpoch, 0),
				trace.F(sumEpoch/epochCount, 1),
				trace.F(maxEpoch/stats.NLogN(fn), 3))
		}
		out = append(out, tbl)
	}
	return out, nil
}

// subgroup implements E10: a connected induced k-subset of a larger social
// graph runs the process among themselves; Theorems 8/12 applied to the
// subgraph give O(k log² k).
func subgroup(cfg Config) ([]*trace.Table, error) {
	ks := cfg.sizes(8, 16, 32, 64, 128)
	trials := cfg.trials(12)
	const hostN = 512

	var out []*trace.Table
	for _, p := range processes {
		tbl := trace.NewTable(
			fmt.Sprintf("E10: %s restricted to induced k-subsets of a %d-node host graph (%d trials)",
				p.name, hostN, trials),
			"k", "rounds", "ci95", "r/(k ln k)", "r/(k ln² k)", "r90 edges", "r90/rounds")
		for ki, k := range ks {
			seed := pointSeed(cfg.Seed, uint64(ki), hashName(p.name))
			// The r90 column (first round with 90% of all pairs known,
			// over all trials) shows the coupon-collector tail: the bulk
			// of discovery finishes in a small fraction of the convergence
			// time.
			rounds, r90, err := edgeRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
				host := gen.TwoClustersBridge(hostN, 6.0/float64(hostN), r)
				return inducedConnectedSubset(host, k, r)
			}, p.proc)
			if err != nil {
				return out, fmt.Errorf("E10 k=%d: %w", k, err)
			}
			sum := stats.Summarize(rounds)
			fk := float64(k)
			tbl.AddRow(trace.I(k),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/stats.NLogN(fk), 3),
				trace.F(sum.Mean/stats.NLog2N(fk), 3),
				trace.I(r90),
				trace.F(float64(r90)/sum.Mean, 3))
		}
		out = append(out, tbl)
	}
	return out, nil
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
