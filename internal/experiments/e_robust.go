package experiments

import (
	"fmt"
	"io"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Robustness: connection failures, partial participation, crashes",
		Paper: "Section 6 (conclusion): proposed process variants",
		Run:   runRobustness,
	})
}

// runRobustness implements E12. Section 6 conjectures the processes
// tolerate connection failures, partial participation and churn; here we
// measure the slowdown each perturbation costs. The theory predicts simple
// scaling: a connection that fails with probability p (or a node that
// participates with probability q) thins each round's progress by a
// constant factor, so rounds should scale roughly ×1/(1−p) and ×1/q.
func runRobustness(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	n := 64
	trials := cfg.trials(12)

	for _, procName := range []string{"push", "pull"} {
		inner := func() core.Process {
			if procName == "pull" {
				return core.Pull{}
			}
			return core.Push{}
		}()

		// Connection failures.
		failTbl := trace.NewTable(
			fmt.Sprintf("E12: %s on cycle n=%d under connection failures (%d trials)", procName, n, trials),
			"fail prob", "rounds", "ci95", "slowdown", "1/(1-p)")
		base := 0.0
		for pi, p := range []float64{0, 0.1, 0.3, 0.5} {
			proc := core.Process(inner)
			if p > 0 {
				proc = core.Wrap(inner, core.Fail(p))
			}
			seed := pointSeed(cfg.Seed, hashName(procName), uint64(pi))
			sum, err := pointRounds(cfg, trials, seed, cycleBuilder(n), undirected(proc, cfg.engine()))
			if err != nil {
				return fmt.Errorf("E12 fail p=%.1f: %w", p, err)
			}
			if p == 0 {
				base = sum.Mean
			}
			failTbl.AddRow(trace.F(p, 1),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base, 2), trace.F(1/(1-p), 2))
		}
		if err := render(cfg, w, failTbl); err != nil {
			return err
		}

		// Partial participation.
		partTbl := trace.NewTable(
			fmt.Sprintf("E12: %s on cycle n=%d under partial participation (%d trials)", procName, n, trials),
			"participation q", "rounds", "ci95", "slowdown", "1/q")
		for qi, q := range []float64{1, 0.5, 0.25} {
			proc := core.Process(inner)
			if q < 1 {
				proc = core.Wrap(inner, core.Participation(q))
			}
			seed := pointSeed(cfg.Seed, hashName(procName), 100+uint64(qi))
			sum, err := pointRounds(cfg, trials, seed, cycleBuilder(n), undirected(proc, cfg.engine()))
			if err != nil {
				return fmt.Errorf("E12 part q=%.2f: %w", q, err)
			}
			partTbl.AddRow(trace.F(q, 2),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base, 2), trace.F(1/q, 2))
		}
		if err := render(cfg, w, partTbl); err != nil {
			return err
		}
	}

	// Crash failures: a random quarter of a dense random graph is dead
	// from the start; the live nodes must still discover each other while
	// wasting samples on dead contacts.
	crashTbl := trace.NewTable(
		fmt.Sprintf("E12: 25%% fail-stop crashes on ConnectedER(n=%d), rounds to alive-complete (%d trials)", n, trials),
		"process", "rounds (crashes)", "ci95", "healthy control (3n/4 nodes)", "slowdown")
	for pi, procName := range []string{"push", "pull"} {
		seed := pointSeed(cfg.Seed, 7777, uint64(pi))
		// The alive mask must be shared between the process and the Done
		// predicate, so each trial builds both from its workload.
		crashSum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) crashWorkload {
			return buildCrashWorkload(n, r)
		}, func(w crashWorkload, r *rng.Rand) outcome {
			c := cfg.engine()
			c.Done = metrics.AliveComplete(w.alive)
			return undirected(crashProcByName(procName, w.alive), c)(w.g, r)
		})
		if err != nil {
			return fmt.Errorf("E12 crash %s: %w", procName, err)
		}

		// Fair control: a healthy network with as many nodes as survive the
		// crash (the crashed runs only need the 3n/4 living pairs covered).
		aliveN := n - n/4
		healthySum, err := pointRounds(cfg, trials, seed+1, func(trial int, r *rng.Rand) *graph.Undirected {
			return gen.ConnectedER(aliveN, 8.0/float64(aliveN), r)
		}, undirected(plainProcByName(procName), cfg.engine()))
		if err != nil {
			return fmt.Errorf("E12 healthy %s: %w", procName, err)
		}
		crashTbl.AddRow(procName,
			trace.F(crashSum.Mean, 1), trace.F(crashSum.CI95, 1),
			trace.F(healthySum.Mean, 1),
			trace.F(crashSum.Mean/healthySum.Mean, 2))
	}
	return render(cfg, w, crashTbl)
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

func plainProcByName(name string) core.Process {
	if name == "pull" {
		return core.Pull{}
	}
	return core.Push{}
}

func crashProcByName(name string, alive []bool) core.Process {
	if name == "pull" {
		return core.CrashedPull{Alive: alive}
	}
	return core.Crashed{Inner: core.Push{}, Alive: alive}
}
