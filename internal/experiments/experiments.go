// Package experiments registers one runnable experiment per theorem and
// figure of the paper, E1–E22 (README's experiment catalog lists them). Each
// experiment sweeps a workload, runs every sweep point's trials on
// sim.Trials' pool, bounded by Config.TrialWorkers, and renders its tables.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

// Config tunes an experiment run.
type Config struct {
	// Seed is the root seed of every sweep point (combined with point
	// coordinates so points are independent but reproducible).
	Seed uint64
	// Trials overrides the per-point trial count (0 = experiment default).
	Trials int
	// Scale in (0, 1] shrinks the problem-size sweep for quick runs; 1 is
	// the full ladder, as is any value outside (0, 1], NaN included.
	Scale float64
	// CSV selects CSV output instead of aligned text.
	CSV bool
	// Workers selects the per-run round engine (sim.Config.Workers):
	// 0 keeps the classic sequential engine, every w >= 1 the sharded one
	// (identical tables for every w >= 1). E15's eager column ignores it,
	// as sim.Config.Workers is ignored under CommitEager. A run steps on
	// one goroutine; the parallelism is TrialWorkers'.
	Workers int
	// TrialWorkers bounds how many trials of a sweep point run
	// concurrently (the pool of sim.Trials, under every experiment): 0 =
	// GOMAXPROCS, 1 = strictly sequential. Outputs are byte-identical for
	// every value.
	TrialWorkers int
	// Sched selects which asynchronous runtimes the scheduler-sensitive
	// experiments (E15) tabulate: "" or "both" runs the tick scheduler and
	// the event-driven runtime side by side, "tick" or "event" runs just
	// one. Callers validate the value (cmd layer); experiments treat any
	// other string as "both".
	Sched string
	// RateSpec, when non-empty, is an eventsim rate spec (see
	// eventsim.ParseRateSpec) adding a custom-population table to E20,
	// resolved against the sweep's largest problem size.
	RateSpec string
	// RoleSpec, when non-empty, is a role spec (see core.ParseRoleSpec)
	// adding a custom-population table to E21, resolved against the
	// sweep's largest problem size over a push base.
	RoleSpec string
}

// scheds resolves Config.Sched into per-runtime switches.
func (c Config) scheds() (tick, event bool) {
	switch c.Sched {
	case "tick":
		return true, false
	case "event":
		return false, true
	default:
		return true, true
	}
}

// engine returns the sim.Config every undirected sweep point shares.
func (c Config) engine() sim.Config { return sim.Config{Workers: c.Workers} }

// directedEngine is the directed analogue of engine.
func (c Config) directedEngine() sim.DirectedConfig { return sim.DirectedConfig{Workers: c.Workers} }

func (c Config) normalized() Config {
	if c.Seed == 0 {
		c.Seed = 0x9d15c0ffee
	}
	if !(c.Scale > 0 && c.Scale <= 1) { // NaN included
		c.Scale = 1
	}
	return c
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

// sizes scales a ladder of problem sizes: with Scale < 1 the ladder is
// truncated (never below its two smallest rungs).
func (c Config) sizes(ladder ...int) []int {
	keep := int(float64(len(ladder))*c.Scale + 0.5)
	if keep < 2 {
		keep = 2
	}
	if keep > len(ladder) {
		keep = len(ladder)
	}
	return ladder[:keep]
}

// pointSeed derives a stable seed for one sweep point from the root seed
// and the point's coordinates, so adding sweep points never perturbs the
// results of existing ones.
func pointSeed(root uint64, coords ...uint64) uint64 {
	h := root ^ 0x9e3779b97f4a7c15
	for _, c := range coords {
		h ^= c + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return h
}

// Experiment is a registered, runnable reproduction unit.
type Experiment struct {
	// ID is the stable identifier, e.g. "E1".
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the theorem/figure reproduced.
	Paper string
	// Run executes the experiment and renders its tables to w.
	Run func(cfg Config, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID (numerically).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// render writes a table in the configured format, followed by a blank line.
func render(cfg Config, w io.Writer, t *trace.Table) error {
	var err error
	if cfg.CSV {
		err = t.RenderCSV(w)
	} else {
		err = t.Render(w)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// outcome is one trial as pointRounds summarizes it: its rounds to
// convergence (a parallel time on the asynchronous runtimes) and whether it
// converged.
type outcome struct {
	rounds    float64
	converged bool
}

// pointRounds runs one sweep point's trials on cfg's trial pool and
// summarizes their rounds to convergence, returning an error if any trial
// failed to converge.
func pointRounds[G any](cfg Config, trials int, seed uint64, build func(trial int, r *rng.Rand) G,
	run func(G, *rng.Rand) outcome) (stats.Summary, error) {
	rounds := make([]float64, trials)
	for i, o := range sim.Trials(cfg.TrialWorkers, trials, seed, build, run) {
		if !o.converged {
			return stats.Summary{}, fmt.Errorf("experiments: %d-trial batch had non-converged runs", trials)
		}
		rounds[i] = o.rounds
	}
	return stats.Summarize(rounds), nil
}

// undirected is pointRounds' run for process p on engine c.
func undirected(p core.Process, c sim.Config) func(*graph.Undirected, *rng.Rand) outcome {
	return func(g *graph.Undirected, r *rng.Rand) outcome {
		res := sim.Run(g, p, r, c)
		return outcome{float64(res.Rounds), res.Converged}
	}
}

// twoHop is pointRounds' run for the directed two-hop walk on c's engine.
func (c Config) twoHop() func(*graph.Directed, *rng.Rand) outcome {
	return func(g *graph.Directed, r *rng.Rand) outcome {
		res := sim.RunDirected(g, core.DirectedTwoHop{}, r, c.directedEngine())
		return outcome{float64(res.Rounds), res.Converged}
	}
}

// resultRounds returns the trials' round counts, or an error if any trial
// failed to converge.
func resultRounds(results []sim.Result) ([]float64, error) {
	rounds := make([]float64, len(results))
	for i, res := range results {
		if !res.Converged {
			return nil, fmt.Errorf("experiments: %d-trial batch had non-converged runs", len(results))
		}
		rounds[i] = float64(res.Rounds)
	}
	return rounds, nil
}
