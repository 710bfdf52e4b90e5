package experiments

import (
	"fmt"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/stream"
	"gossipdisc/internal/trace"
)

// directedUpper implements E5: termination time of the directed two-hop
// walk on directed cycles and random strongly connected digraphs, with the
// Theorem 14 normalizations.
func directedUpper(cfg Config) ([]*trace.Table, error) {
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

	var points []point
	for _, fam := range families {
		for ni, n := range ns {
			points = append(points, point{
				cells: []string{fam.name, trace.I(n)},
				n:     n,
				rounds: measure(cfg, trials, pointSeed(cfg.Seed, uint64(ni), hashName(fam.name)), func(trial int, r *rng.Rand) *graph.Directed {
					return fam.build(n, r)
				}, twoHop),
				tail: thm14Ratios(n),
			})
		}
	}
	return scalingTables(fmt.Sprintf("E5: directed two-hop, mean rounds to transitive closure (%d trials)", trials),
		[]string{"family", "n", "rounds", "ci95", "r/n²", "r/(n² ln n)"}, points,
		"E5: log-log scaling exponents (O(n² log n) ⇒ exponent ≤ ~2.2)", true)
}

// thm14Ratios is the tail of a Theorem 14 row: mean rounds over n² and
// over n² ln n.
func thm14Ratios(n int) func(stats.Summary) []string {
	fn := float64(n)
	return func(s stats.Summary) []string {
		return []string{trace.F(s.Mean/stats.N2(fn), 4), trace.F(s.Mean/stats.N2LogN(fn), 4)}
	}
}

// weakLower implements E6: the explicit weakly connected construction from
// the proof of Theorem 14. The only arcs the process must add are
// (3i → 3i+2), each hit with probability Θ(1/n²) per round, so termination
// needs Ω(n² log n) rounds — the ratio r/(n² ln n) should stay bounded
// away from zero (and r/n² should *grow* with n).
func weakLower(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(16, 32, 64, 128)
	trials := cfg.trials(8)

	var points []point
	for ni, n := range ns {
		points = append(points, point{
			cells: []string{trace.I(n), trace.I(n / 4)},
			n:     n,
			rounds: measure(cfg, trials, pointSeed(cfg.Seed, uint64(ni)), func(trial int, r *rng.Rand) *graph.Directed {
				return gen.Thm14WeakLowerBound(n)
			}, twoHop),
			tail: thm14Ratios(n),
		})
	}
	return scalingTables(fmt.Sprintf("E6: directed two-hop on the Thm 14 construction (%d trials)", trials),
		[]string{"n", "missing arcs", "rounds", "ci95", "r/n²", "r/(n² ln n)"}, points,
		"E6: log-log exponent (Θ(n² log n) ⇒ slightly above 2)", false)
}

// strongLower implements E7: the Figure 3/4 strongly connected
// construction of Theorem 15. Expected termination is Ω(n²): the ratio
// r/n² should be roughly constant, and visibly larger than on random
// strongly connected digraphs of the same size.
func strongLower(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(16, 32, 64, 128)
	trials := cfg.trials(8)

	var points []point
	for ni, n := range ns {
		seed := pointSeed(cfg.Seed, uint64(ni))
		fn := float64(n)
		var easy stats.Summary // the control: random digraphs, on the next seed
		points = append(points, point{
			cells: []string{trace.I(n)},
			n:     n,
			rounds: func() (stats.Summary, error) {
				hard, err := pointRounds(cfg, trials, seed, thm15Builder(n), twoHop)
				if err == nil {
					easy, err = pointRounds(cfg, trials, seed+1, func(trial int, r *rng.Rand) *graph.Directed {
						return gen.RandomStronglyConnected(n, n/2, r)
					}, twoHop)
				}
				return hard, err
			},
			tail: func(s stats.Summary) []string {
				return []string{trace.F(s.Mean/stats.N2(fn), 4), trace.F(easy.Mean/stats.N2(fn), 4), trace.F(s.Mean/easy.Mean, 2)}
			},
		})
	}
	out, err := scalingTables(fmt.Sprintf("E7: directed two-hop on the Thm 15 (Fig 3-4) construction (%d trials)", trials),
		[]string{"n", "rounds", "ci95", "r/n²", "random-graph r/n²", "hardness ratio"}, points,
		"E7: log-log exponent (Θ(n²) ⇒ ~2)", false)
	if err != nil {
		return nil, err
	}
	phases, err := thm15CutPhases(cfg, trials)
	if err != nil {
		return out, err
	}
	return append(out, phases), nil
}

// thm15CutPhases reproduces the *mechanics* of the Theorem 15 proof: the
// analysis tracks X_t, the smallest x whose cut C_x = ({u ≤ x}, {v > x})
// is still "untouched" (its only left-to-right arc is (x, x+1)). The proof
// divides time into phases ending whenever X changes, shows each phase
// lasts Ω(n) expected rounds, and that Ω(n) phases are needed. Here we
// measure both factors directly.
func thm15CutPhases(cfg Config, trials int) (*trace.Table, error) {
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
				s := sim.NewDirectedSession(g, core.DirectedTwoHop{}, r, sim.DirectedConfig{})
				defer s.Close()
				tracker := &cutTracker{}
				s.Subscribe(tracker)
				converged := s.Run().Converged
				return trial{tracker.phases, converged}
			})
		var phaseCount, phaseLenSum, runs float64
		for _, t := range results {
			if !t.converged {
				return nil, fmt.Errorf("E7 phases n=%d: did not converge", n)
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
	return tbl, nil
}

func thm15Builder(n int) func(trial int, r *rng.Rand) *graph.Directed {
	return func(trial int, r *rng.Rand) *graph.Directed { return gen.Thm15StrongLowerBound(n) }
}

// cutTracker follows X_t — the smallest x whose cut is untouched — from
// round to round and records the phase lengths (in rounds): the maximal
// runs of equal X_t.
type cutTracker struct {
	x      int
	phases []int
}

// OnEvent implements stream.Subscriber for the directed run it watches.
func (c *cutTracker) OnEvent(e *stream.Event) {
	if x := smallestUntouchedCut(e.Digraph); len(c.phases) > 0 && x == c.x {
		c.phases[len(c.phases)-1]++
	} else {
		c.x = x
		c.phases = append(c.phases, 1)
	}
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
