package experiments

import (
	"fmt"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/trace"
)

// robustness implements E12. Section 6 conjectures the processes tolerate
// connection failures, partial participation and churn; here we measure
// the slowdown each perturbation costs. The theory predicts simple
// scaling: a connection that fails with probability p (or a node that
// participates with probability q) thins each round's progress by a
// constant factor, so rounds should scale roughly ×1/(1−p) and ×1/q.
func robustness(cfg Config) ([]*trace.Table, error) {
	n := 64
	trials := cfg.trials(12)

	var out []*trace.Table
	for _, pr := range processes {
		// cyclePoint measures proc on the n-cycle at seed coordinate c.
		cyclePoint := func(c uint64, proc core.Process, cell string, extra float64) point {
			return point{
				cells:  []string{cell},
				rounds: measure(cfg, trials, pointSeed(cfg.Seed, hashName(pr.name), c), cycleBuilder(n), undirected(proc, sim.Config{})),
				extra:  []string{trace.F(extra, 2)},
			}
		}

		// Connection failures.
		var points []point
		for pi, p := range []float64{0, 0.1, 0.3, 0.5} {
			proc := pr.proc
			if p > 0 {
				proc = core.Wrap(pr.proc, core.Fail(p))
			}
			points = append(points, cyclePoint(uint64(pi), proc, trace.F(p, 1), 1/(1-p)))
		}
		failTbl, base, err := slowdownTable(
			fmt.Sprintf("E12: %s on cycle n=%d under connection failures (%d trials)", pr.name, n, trials),
			[]string{"fail prob", "rounds", "ci95", "slowdown", "1/(1-p)"}, 0, points)
		if err != nil {
			return out, err
		}
		out = append(out, failTbl)

		// Partial participation, slowed down against the failure-free run.
		points = nil
		for qi, q := range []float64{1, 0.5, 0.25} {
			proc := pr.proc
			if q < 1 {
				proc = core.Wrap(pr.proc, core.Participation(q))
			}
			points = append(points, cyclePoint(100+uint64(qi), proc, trace.F(q, 2), 1/q))
		}
		partTbl, _, err := slowdownTable(
			fmt.Sprintf("E12: %s on cycle n=%d under partial participation (%d trials)", pr.name, n, trials),
			[]string{"participation q", "rounds", "ci95", "slowdown", "1/q"}, base, points)
		if err != nil {
			return out, err
		}
		out = append(out, partTbl)
	}

	// Crash failures: a random quarter of a dense random graph is dead
	// from the start; the live nodes must still discover each other while
	// wasting samples on dead contacts.
	crashTbl := trace.NewTable(
		fmt.Sprintf("E12: 25%% fail-stop crashes on ConnectedER(n=%d), rounds to alive-complete (%d trials)", n, trials),
		"process", "rounds (crashes)", "ci95", "healthy control (3n/4 nodes)", "slowdown")
	for pi, pr := range processes {
		seed := pointSeed(cfg.Seed, 7777, uint64(pi))
		// The alive mask must be shared between the process and the Done
		// predicate, so each trial builds both from its workload.
		crashSum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) crashWorkload {
			return buildCrashWorkload(n, r)
		}, func(w crashWorkload, r *rng.Rand) outcome {
			return undirected(pr.crashed(w.alive), sim.Config{Done: metrics.AliveComplete(w.alive)})(w.g, r)
		})
		if err != nil {
			return out, fmt.Errorf("E12 crash %s: %w", pr.name, err)
		}

		// Fair control: a healthy network with as many nodes as survive the
		// crash (the crashed runs only need the 3n/4 living pairs covered).
		aliveN := n - n/4
		healthySum, err := pointRounds(cfg, trials, seed+1, func(trial int, r *rng.Rand) *graph.Undirected {
			return gen.ConnectedER(aliveN, 8.0/float64(aliveN), r)
		}, undirected(pr.proc, sim.Config{}))
		if err != nil {
			return out, fmt.Errorf("E12 healthy %s: %w", pr.name, err)
		}
		crashTbl.AddRow(pr.name,
			trace.F(crashSum.Mean, 1), trace.F(crashSum.CI95, 1),
			trace.F(healthySum.Mean, 1),
			trace.F(crashSum.Mean/healthySum.Mean, 2))
	}
	return append(out, crashTbl), nil
}

// crashWorkload is a start graph and its alive mask.
type crashWorkload struct {
	g     *graph.Undirected
	alive []bool
}

// buildCrashWorkload samples a dense connected random graph and a 25% dead
// mask whose alive-induced subgraph is connected (resampling the mask until
// it is).
func buildCrashWorkload(n int, r *rng.Rand) crashWorkload {
	for {
		g := gen.ConnectedER(n, 8.0/float64(n), r)
		alive := make([]bool, n)
		var living []int
		for i := range alive {
			alive[i] = true
		}
		for _, i := range r.Perm(n)[:n/4] {
			alive[i] = false
		}
		for i, a := range alive {
			if a {
				living = append(living, i)
			}
		}
		if g.InducedSubgraph(living).IsConnected() {
			return crashWorkload{g, alive}
		}
	}
}
