// Package experiments registers one runnable experiment per theorem and
// figure of the paper, E1–E22 (README's experiment catalog lists them). Each
// experiment sweeps a workload, runs every sweep point's trials on
// sim.Trials' pool, bounded by Config.TrialWorkers, and returns its tables;
// Experiment.Run renders them in order.
package experiments

import (
	"fmt"
	"io"
	"slices"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/protocol"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/stream"
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
	// TrialWorkers bounds how many trials of a sweep point run
	// concurrently (the pool of sim.Trials, under every experiment): 0 =
	// GOMAXPROCS, 1 = strictly sequential. Outputs are byte-identical for
	// every value. A run steps on one goroutine; this is the only
	// parallelism.
	TrialWorkers int
	// RateSpec, when non-empty, is an eventsim rate spec (see
	// eventsim.ParseRateSpec) adding a custom-population table to E20,
	// resolved against the sweep's largest problem size.
	RateSpec string
	// RoleSpec, when non-empty, is a role spec (see core.ParseRoleSpec)
	// adding a custom-population table to E21, resolved against the
	// sweep's largest problem size over a push base.
	RoleSpec string
}

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
	return ladder[:min(max(keep, 2), len(ladder))]
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

// registry lists the experiments in ID order.
var registry = []Experiment{
	{
		ID:    "E1",
		Title: "Push (triangulation) convergence scaling on sparse families",
		Paper: "Theorem 8: O(n log² n) upper bound",
		Run:   tables(upperBoundSweep("E1", core.Push{})),
	},
	{
		ID:    "E2",
		Title: "Push rounds on near-complete graphs with k missing edges",
		Paper: "Theorem 9: Ω(n log k) lower bound",
		Run:   tables(lowerBoundSweep("E2", core.Push{})),
	},
	{
		ID:    "E3",
		Title: "Pull (two-hop walk) convergence scaling on sparse families",
		Paper: "Theorem 12: O(n log² n) upper bound",
		Run:   tables(upperBoundSweep("E3", core.Pull{})),
	},
	{
		ID:    "E4",
		Title: "Pull rounds on near-complete graphs with k missing edges",
		Paper: "Theorem 13: Ω(n log k) lower bound",
		Run:   tables(lowerBoundSweep("E4", core.Pull{})),
	},
	{
		ID:    "E5",
		Title: "Directed two-hop walk on strongly connected digraphs",
		Paper: "Theorem 14 (upper): O(n² log n) termination",
		Run:   tables(directedUpper),
	},
	{
		ID:    "E6",
		Title: "Directed two-hop walk on the Theorem 14 weak construction",
		Paper: "Theorem 14 (lower): Ω(n² log n) on a weakly connected graph",
		Run:   tables(weakLower),
	},
	{
		ID:    "E7",
		Title: "Directed two-hop walk on the Theorem 15 strong construction (Fig 3-4)",
		Paper: "Theorem 15: Ω(n²) expected rounds, strongly connected",
		Run:   tables(strongLower),
	},
	{
		ID:    "E8",
		Title: "Non-monotonicity of expected convergence time (exact Markov solver)",
		Paper: "Figure 1(c)",
		Run:   tables(nonMonotonicity),
	},
	{
		ID:    "E9",
		Title: "Minimum-degree growth epochs (the proof engine of Thm 8/12)",
		Paper: "Theorems 8/12 proof structure: δ grows ×(1+1/8) per O(n log n) rounds",
		Run:   tables(minDegreeGrowth),
	},
	{
		ID:    "E10",
		Title: "Subgroup discovery: induced k-subsets converge in O(k log² k)",
		Paper: "Section 1/3: subgraph corollary of Theorems 8/12",
		Run:   tables(subgroup),
	},
	{
		ID:    "E11",
		Title: "Rounds-vs-bandwidth trade-off against Name Dropper and Pointer Jump",
		Paper: "Section 1 (Applications): O(log n)-bit gossip vs Θ(n)-bit discovery",
		Run:   tables(baselines),
	},
	{
		ID:    "E12",
		Title: "Robustness: connection failures, partial participation, crashes",
		Paper: "Section 6 (conclusion): proposed process variants",
		Run:   tables(robustness),
	},
	{
		ID:    "E13",
		Title: "Message-level protocol realization and Lemma 1 validation",
		Paper: "Model section: O(log n)-bit messages; Lemma 1",
		Run:   tables(protocols),
	},
	{
		ID:    "E14",
		Title: "Discovery under continuous churn (steady-state coverage)",
		Paper: "Section 6 (conclusion): joining and leaving of nodes",
		Run:   tables(churnCoverage),
	},
	{
		ID:    "E15",
		Title: "Scheduler/commit ablation: synchronous vs eager vs asynchronous",
		Paper: "DESIGN.md decision 1: the G_t commit semantics",
		Run:   tables(ablation),
	},
	{
		ID:    "E16",
		Title: "Concentration of convergence time (the \"w.h.p.\" in Thm 8/12)",
		Paper: "Theorems 8/12: high-probability bounds",
		Run:   tables(concentration),
	},
	{
		ID:    "E17",
		Title: "Social-network evolution: diameter, clustering, N¹/N²/N³ profiles",
		Paper: "Section 1: \"how do clusters emerge? how does the diameter change with time?\"",
		Run:   tables(evolution),
	},
	{
		ID:    "E18",
		Title: "Push vs pull vs combined: constants head-to-head",
		Paper: "Sections 3-4: both processes are Θ(n·polylog n); which constant wins where?",
		Run:   tables(headToHead),
	},
	{
		ID:    "E19",
		Title: "Chaos degradation curves: wire-level discovery vs impairment intensity",
		Paper: "Section 6 robustness conjectures, on the message-passing stack",
		Run:   tables(chaos),
	},
	{
		ID:    "E20",
		Title: "Heterogeneous activation rates: skew vs dissemination time and AoI",
		Paper: "Event-driven runtime; AoI after Bastopcu et al. (PAPERS.md)",
		Run:   tables(rateSkew),
	},
	{
		ID:    "E21",
		Title: "Byzantine introducers: discovery degradation vs adversarial fraction",
		Paper: "Roles pack; Section 6 robustness discussion extended to adversaries",
		Run:   tables(byzantine),
	},
	{
		ID:    "E22",
		Title: "Source anonymity: eavesdropper coalition posterior vs coalition size",
		Paper: "Roles pack; anonymity of the rumor's entry node under observation",
		Run:   tables(anonymity),
	},
}

// All returns the registered experiments in ID order.
func All() []Experiment { return slices.Clone(registry) }

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// tables turns an experiment body into its Run. The body gets the
// normalized config and returns the tables it finished, in order, with the
// error that stopped it, if any; Run writes those tables in the configured
// format, each followed by a blank line, and then returns the error.
func tables(body func(cfg Config) ([]*trace.Table, error)) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		tbls, err := body(cfg.normalized())
		for _, t := range tbls {
			render := t.Render
			if cfg.CSV {
				render = t.RenderCSV
			}
			werr := render(w)
			if werr == nil {
				_, werr = fmt.Fprintln(w)
			}
			if werr != nil {
				return werr
			}
		}
		return err
	}
}

// processes are the paper's two undirected processes in table order, with
// their wire protocols and fail-stop variants.
var processes = []struct {
	name    string
	proc    core.Process
	wire    protocol.Protocol
	crashed func(alive []bool) core.Process
}{
	{"push", core.Push{}, protocol.ProtoPush, func(alive []bool) core.Process {
		return core.Crashed{Inner: core.Push{}, Alive: alive}
	}},
	{"pull", core.Pull{}, protocol.ProtoPull, func(alive []bool) core.Process {
		return core.CrashedPull{Alive: alive}
	}},
}

// outcome is one trial as pointRounds summarizes it: its rounds to
// convergence (a parallel time on the asynchronous runtimes), whether it
// converged, and the error that kept it from running, if any.
type outcome struct {
	rounds    float64
	converged bool
	err       error
}

// pointRounds runs one sweep point's trials on cfg's trial pool and
// summarizes their rounds to convergence, returning an error if any trial
// could not run or failed to converge.
func pointRounds[G any](cfg Config, trials int, seed uint64, build func(trial int, r *rng.Rand) G,
	run func(G, *rng.Rand) outcome) (stats.Summary, error) {
	rounds := make([]float64, trials)
	for i, o := range sim.Trials(cfg.TrialWorkers, trials, seed, build, run) {
		if o.err != nil {
			return stats.Summary{}, o.err
		}
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
		return outcome{rounds: float64(res.Rounds), converged: res.Converged}
	}
}

// observe runs p on g to the end on engine c, with subs subscribed to the
// run's bus, and returns its result.
func observe(g *graph.Undirected, p core.Process, r *rng.Rand, c sim.Config, subs ...stream.Subscriber) sim.Result {
	s := sim.NewSession(g, p, r, c)
	defer s.Close()
	for _, sub := range subs {
		s.Subscribe(sub)
	}
	return s.Run()
}

// twoHop is pointRounds' run for the directed two-hop walk.
func twoHop(g *graph.Directed, r *rng.Rand) outcome {
	res := sim.RunDirected(g, core.DirectedTwoHop{}, r, sim.DirectedConfig{})
	return outcome{rounds: float64(res.Rounds), converged: res.Converged}
}

// point is one sweep point: the cells that lead its row, its problem
// size, the trials that measure it, and the cells that close its row —
// tail's, from its summary (slowdownTable sets it), then extra.
type point struct {
	cells  []string
	n      int
	rounds func() (stats.Summary, error)
	tail   func(stats.Summary) []string
	extra  []string
}

// measure defers pointRounds for one point.
func measure[G any](cfg Config, trials int, seed uint64, build func(trial int, r *rng.Rand) G,
	run func(G, *rng.Rand) outcome) func() (stats.Summary, error) {
	return func() (stats.Summary, error) { return pointRounds(cfg, trials, seed, build, run) }
}

// sweep measures the points in order and adds one row per point to t: its
// cells, mean rounds and ci95, its tail and its extra cells. It returns
// the summaries, or the first failure under t's title and the point's
// cells (t then has no rows).
func sweep(t *trace.Table, points []point) ([]stats.Summary, error) {
	sums := make([]stats.Summary, len(points))
	for i, p := range points {
		var err error
		if sums[i], err = p.rounds(); err != nil {
			return nil, fmt.Errorf("%s %v: %w", t.Title, p.cells, err)
		}
	}
	for i, p := range points {
		t.AddRow(slices.Concat(p.cells, []string{trace.F(sums[i].Mean, 1), trace.F(sums[i].CI95, 1)}, p.tail(sums[i]), p.extra)...)
	}
	return sums, nil
}

// slowdownTable sweeps the points into a table whose measured columns end
// with the slowdown against base — against the first point's mean when
// base is 0 — in place of the points' tails. It returns the table and the
// base it used.
func slowdownTable(title string, cols []string, base float64, points []point) (*trace.Table, float64, error) {
	for i := range points {
		points[i].tail = func(s stats.Summary) []string {
			if base == 0 {
				base = s.Mean // the first row's
			}
			return []string{trace.F(s.Mean/base, 2)}
		}
	}
	t := trace.NewTable(title, cols...)
	_, err := sweep(t, points)
	return t, base, err
}

// scalingTables sweeps the points into a table and follows it with a fit
// of the log-log slope of their mean rounds against n, with its R²: one
// curve per family (a run of points with the same first cell) when
// byFamily is set, else one curve over every point and no family column.
// Curves of fewer than two points are not fitted.
func scalingTables(title string, cols []string, points []point, fitTitle string, byFamily bool) ([]*trace.Table, error) {
	tbl := trace.NewTable(title, cols...)
	sums, err := sweep(tbl, points)
	if err != nil {
		return nil, err
	}
	fit := trace.NewTable(fitTitle, "exponent", "R²")
	if byFamily {
		fit = trace.NewTable(fitTitle, "family", "exponent", "R²")
	}
	for lo, hi := 0, 0; lo < len(points); lo = hi {
		var xs, ys []float64
		for hi = lo; hi < len(points) && (!byFamily || points[hi].cells[0] == points[lo].cells[0]); hi++ {
			xs, ys = append(xs, float64(points[hi].n)), append(ys, sums[hi].Mean)
		}
		if len(xs) < 2 {
			continue
		}
		exp, r2 := stats.LogLogSlope(xs, ys)
		row := []string{trace.F(exp, 3), trace.F(r2, 4)}
		if byFamily {
			row = append([]string{points[lo].cells[0]}, row...)
		}
		fit.AddRow(row...)
	}
	return []*trace.Table{tbl, fit}, nil
}

// edgeTrial is one run of edgeRounds: its result, its pair count, and its
// edge count on entry and after every round.
type edgeTrial struct {
	res   sim.Result
	pairs int
	edges []int
}

// edgeRounds runs one sweep point's trials of p on cfg's trial pool, each
// recording its edge counts, and returns their rounds to convergence and
// r90: the first round at which the trials together hold 90% of all pairs
// (roundAtEdgeFraction). It fails if any trial failed to converge.
func edgeRounds(cfg Config, trials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Undirected,
	p core.Process) (rounds []float64, r90 int, err error) {
	runs := sim.Trials(cfg.TrialWorkers, trials, seed, build, func(g *graph.Undirected, r *rng.Rand) edgeTrial {
		t := edgeTrial{pairs: g.N() * (g.N() - 1) / 2, edges: []int{g.M()}}
		t.res = observe(g, p, r, sim.Config{}, stream.SubscriberFunc(func(e *stream.Event) {
			if e.Kind == stream.KindRound {
				t.edges = append(t.edges, e.Graph.M())
			}
		}))
		return t
	})
	rounds = make([]float64, trials)
	for i, t := range runs {
		if !t.res.Converged {
			return nil, 0, fmt.Errorf("experiments: %d-trial batch had non-converged runs", trials)
		}
		rounds[i] = float64(t.res.Rounds)
	}
	return rounds, roundAtEdgeFraction(runs, 0.9), nil
}

// roundAtEdgeFraction folds the trials' edge counts in trial order and
// returns the first round r >= 1 at which Σ edges / Σ pairs reaches frac,
// or -1 if none does. A trial that ended before round r counts with its
// final edge count. With frac < 1 this is typically far below the
// convergence round: the last few missing pairs dominate the Θ(n log² n)
// tail, the coupon-collector effect the paper's lower bounds formalize.
func roundAtEdgeFraction(trials []edgeTrial, frac float64) int {
	rounds, pairs := 0, 0
	for _, t := range trials {
		rounds = max(rounds, len(t.edges)-1)
		pairs += t.pairs
	}
	for r := 1; r <= rounds; r++ {
		edges := 0
		for _, t := range trials {
			edges += t.edges[min(r, len(t.edges)-1)]
		}
		if float64(edges)/float64(pairs) >= frac {
			return r
		}
	}
	return -1
}
