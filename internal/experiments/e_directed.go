package experiments

import (
	"fmt"
	"io"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/stream"
	"gossipdisc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "Directed two-hop walk on strongly connected digraphs",
		Paper: "Theorem 14 (upper): O(n² log n) termination",
		Run:   runDirectedUpper,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Directed two-hop walk on the Theorem 14 weak construction",
		Paper: "Theorem 14 (lower): Ω(n² log n) on a weakly connected graph",
		Run:   runWeakLower,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Directed two-hop walk on the Theorem 15 strong construction (Fig 3-4)",
		Paper: "Theorem 15: Ω(n²) expected rounds, strongly connected",
		Run:   runStrongLower,
	})
}

// runDirectedUpper implements E5: termination time of the directed two-hop
// walk on directed cycles and random strongly connected digraphs, with the
// Theorem 14 normalizations.
func runDirectedUpper(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ns := cfg.sizes(16, 32, 64, 96)
	trials := cfg.trials(8)

	families := []struct {
		name  string
		build func(n int, r *rng.Rand) *graph.Directed
	}{
		{"dcycle", func(n int, r *rng.Rand) *graph.Directed { return gen.DirectedCycle(n) }},
		{"strong-random", func(n int, r *rng.Rand) *graph.Directed {
			return gen.RandomStronglyConnected(n, n/2, r)
		}},
	}

	tbl := trace.NewTable(
		fmt.Sprintf("E5: directed two-hop, mean rounds to transitive closure (%d trials)", trials),
		"family", "n", "rounds", "ci95", "r/n²", "r/(n² ln n)")
	type point struct{ n, rounds float64 }
	byFamily := map[string][]point{}
	for _, fam := range families {
		for ni, n := range ns {
			seed := pointSeed(cfg.Seed, uint64(ni), hashName(fam.name))
			sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Directed {
				return fam.build(n, r)
			}, cfg.twoHop())
			if err != nil {
				return fmt.Errorf("E5 %s n=%d: %w", fam.name, n, err)
			}
			fn := float64(n)
			byFamily[fam.name] = append(byFamily[fam.name], point{fn, sum.Mean})
			tbl.AddRow(fam.name, trace.I(n),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/stats.N2(fn), 4),
				trace.F(sum.Mean/stats.N2LogN(fn), 4))
		}
	}
	if err := render(cfg, w, tbl); err != nil {
		return err
	}

	fit := trace.NewTable("E5: log-log scaling exponents (O(n² log n) ⇒ exponent ≤ ~2.2)",
		"family", "exponent", "R²")
	for _, fam := range families {
		pts := byFamily[fam.name]
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.n, p.rounds
		}
		exp, r2 := stats.LogLogSlope(xs, ys)
		fit.AddRow(fam.name, trace.F(exp, 3), trace.F(r2, 4))
	}
	return render(cfg, w, fit)
}

// runWeakLower implements E6: the explicit weakly connected construction
// from the proof of Theorem 14. The only arcs the process must add are
// (3i → 3i+2), each hit with probability Θ(1/n²) per round, so termination
// needs Ω(n² log n) rounds — the ratio r/(n² ln n) should stay bounded
// away from zero (and r/n² should *grow* with n).
func runWeakLower(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ns := cfg.sizes(16, 32, 64, 128)
	trials := cfg.trials(8)

	tbl := trace.NewTable(
		fmt.Sprintf("E6: directed two-hop on the Thm 14 construction (%d trials)", trials),
		"n", "missing arcs", "rounds", "ci95", "r/n²", "r/(n² ln n)")
	xs := make([]float64, 0, len(ns))
	ys := make([]float64, 0, len(ns))
	for ni, n := range ns {
		seed := pointSeed(cfg.Seed, uint64(ni))
		sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Directed {
			return gen.Thm14WeakLowerBound(n)
		}, cfg.twoHop())
		if err != nil {
			return fmt.Errorf("E6 n=%d: %w", n, err)
		}
		fn := float64(n)
		xs = append(xs, fn)
		ys = append(ys, sum.Mean)
		tbl.AddRow(trace.I(n), trace.I(n/4),
			trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
			trace.F(sum.Mean/stats.N2(fn), 4),
			trace.F(sum.Mean/stats.N2LogN(fn), 4))
	}
	if err := render(cfg, w, tbl); err != nil {
		return err
	}
	exp, r2 := stats.LogLogSlope(xs, ys)
	fit := trace.NewTable("E6: log-log exponent (Θ(n² log n) ⇒ slightly above 2)",
		"exponent", "R²")
	fit.AddRow(trace.F(exp, 3), trace.F(r2, 4))
	return render(cfg, w, fit)
}

// runStrongLower implements E7: the Figure 3/4 strongly connected
// construction of Theorem 15. Expected termination is Ω(n²): the ratio
// r/n² should be roughly constant, and visibly larger than on random
// strongly connected digraphs of the same size.
func runStrongLower(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ns := cfg.sizes(16, 32, 64, 128)
	trials := cfg.trials(8)

	tbl := trace.NewTable(
		fmt.Sprintf("E7: directed two-hop on the Thm 15 (Fig 3-4) construction (%d trials)", trials),
		"n", "rounds", "ci95", "r/n²", "random-graph r/n²", "hardness ratio")
	xs := make([]float64, 0, len(ns))
	ys := make([]float64, 0, len(ns))
	for ni, n := range ns {
		seed := pointSeed(cfg.Seed, uint64(ni))
		hardSum, err := pointRounds(cfg, trials, seed, thm15Builder(n), cfg.twoHop())
		if err != nil {
			return fmt.Errorf("E7 n=%d: %w", n, err)
		}
		easySum, err := pointRounds(cfg, trials, seed+1, func(trial int, r *rng.Rand) *graph.Directed {
			return gen.RandomStronglyConnected(n, n/2, r)
		}, cfg.twoHop())
		if err != nil {
			return fmt.Errorf("E7 control n=%d: %w", n, err)
		}
		fn := float64(n)
		xs = append(xs, fn)
		ys = append(ys, hardSum.Mean)
		tbl.AddRow(trace.I(n),
			trace.F(hardSum.Mean, 1), trace.F(hardSum.CI95, 1),
			trace.F(hardSum.Mean/stats.N2(fn), 4),
			trace.F(easySum.Mean/stats.N2(fn), 4),
			trace.F(hardSum.Mean/easySum.Mean, 2))
	}
	if err := render(cfg, w, tbl); err != nil {
		return err
	}
	exp, r2 := stats.LogLogSlope(xs, ys)
	fit := trace.NewTable("E7: log-log exponent (Θ(n²) ⇒ ~2)", "exponent", "R²")
	fit.AddRow(trace.F(exp, 3), trace.F(r2, 4))
	if err := render(cfg, w, fit); err != nil {
		return err
	}
	return runThm15CutPhases(cfg, w, trials)
}

// runThm15CutPhases reproduces the *mechanics* of the Theorem 15 proof:
// the analysis tracks X_t, the smallest x whose cut C_x = ({u ≤ x},
// {v > x}) is still "untouched" (its only left-to-right arc is (x, x+1)).
// The proof divides time into phases ending whenever X changes, shows each
// phase lasts Ω(n) expected rounds, and that Ω(n) phases are needed. Here
// we measure both factors directly.
func runThm15CutPhases(cfg Config, w io.Writer, trials int) error {
	ns := cfg.sizes(16, 32, 64, 128)
	tbl := trace.NewTable(
		fmt.Sprintf("E7: Thm 15 proof mechanics — untouched-cut phases (%d trials)", trials),
		"n", "phases", "mean phase len", "phase len/n", "phases/n")
	for ni, n := range ns {
		type trial struct {
			phases    []int
			converged bool
		}
		results := sim.Trials(cfg.TrialWorkers, trials, pointSeed(cfg.Seed, uint64(ni), 715), thm15Builder(n),
			func(g *graph.Directed, r *rng.Rand) trial {
				s := sim.NewDirectedSession(g, core.DirectedTwoHop{}, r, cfg.directedEngine())
				defer s.Close()
				tracker := &cutTracker{}
				s.Subscribe(tracker)
				converged := s.Run().Converged
				return trial{tracker.phases(), converged}
			})
		var phaseCount, phaseLenSum, runs float64
		for _, t := range results {
			if !t.converged {
				return fmt.Errorf("E7 phases n=%d: did not converge", n)
			}
			phases := t.phases
			if len(phases) == 0 {
				continue
			}
			phaseCount += float64(len(phases))
			for _, l := range phases {
				phaseLenSum += float64(l)
			}
			runs++
		}
		meanPhases := phaseCount / runs
		meanLen := phaseLenSum / phaseCount
		tbl.AddRow(trace.I(n),
			trace.F(meanPhases, 1),
			trace.F(meanLen, 1),
			trace.F(meanLen/float64(n), 3),
			trace.F(meanPhases/float64(n), 3))
	}
	return render(cfg, w, tbl)
}

func thm15Builder(n int) func(trial int, r *rng.Rand) *graph.Directed {
	return func(trial int, r *rng.Rand) *graph.Directed { return gen.Thm15StrongLowerBound(n) }
}

// cutTracker records X_t — the smallest x whose cut is untouched — after
// every round, and the phase lengths between changes of X.
type cutTracker struct {
	history []int
}

// OnEvent implements stream.Subscriber for the directed run it watches.
func (c *cutTracker) OnEvent(e *stream.Event) {
	c.history = append(c.history, smallestUntouchedCut(e.Digraph))
}

// smallestUntouchedCut returns the smallest x in [0, n-1) such that the
// only arc from {u <= x} to {v > x} is (x, x+1), or n-1 if none remains.
func smallestUntouchedCut(g *graph.Directed) int {
	n := g.N()
	// crossing[x] = number of arcs (u, v) with u <= x < v.
	// Compute via a difference array over all arcs in O(m + n).
	diff := make([]int, n+1)
	for _, a := range g.Arcs() {
		if a.U < a.V {
			// contributes to cuts x in [a.U, a.V-1]
			diff[a.U]++
			diff[a.V]--
		}
	}
	crossing := 0
	for x := 0; x < n-1; x++ {
		crossing += diff[x]
		if crossing == 1 && g.HasArc(x, x+1) {
			return x
		}
	}
	return n - 1
}

// phases returns the lengths (in rounds) of the maximal runs of equal X_t.
func (c *cutTracker) phases() []int {
	var out []int
	if len(c.history) == 0 {
		return out
	}
	run := 1
	for i := 1; i < len(c.history); i++ {
		if c.history[i] == c.history[i-1] {
			run++
			continue
		}
		out = append(out, run)
		run = 1
	}
	out = append(out, run)
	return out
}
