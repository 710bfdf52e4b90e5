package main

import (
	"fmt"
	"io"
	"runtime"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/churn"
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/export"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// parWorkers is the most workers any engine the benchmark configures may
// use: the sizing box has two cores, and a number taken on more would not
// compare with one taken there.
func parWorkers() int { return min(runtime.NumCPU(), 2) }

// outcome is what one finished op reports for the throughput metrics and
// the replay check.
type outcome struct {
	// result is the engine's own Result (comparable with ==): the warm-up
	// op and timed op 1 share a seed, so theirs must be equal.
	result any
	// proposals is the numerator of proposals_per_s.
	proposals int
	// events is the numerator of events_per_s: Process.Act activations.
	events int
}

// op is one ready-to-drive operation: run is the timed drive, verify the
// untimed output checks. deep adds the checks too slow to repeat on every
// op (CheckInvariants, the independent closure recomputation); the warm-up
// op runs them.
type op struct {
	run    func()
	verify func(deep bool) (outcome, error)
}

// workload is one named input family. setup turns the op's generator into
// a ready session (the timed set-up: generator + constructor + Subscribe
// calls); trace is the workload's traced pass.
type workload struct {
	name  string
	why   string
	setup func(r *rng.Rand) op
	trace func(tr *tracer, r rng.Rand) (layers, error)
}

func workloads() []workload {
	converge := roundSpec{n: 2048, backend: graph.BackendDense, proc: core.Push{}, ratios: []ratio{
		{metric: "sim.w1_over_w0", cfg: sim.Config{Workers: 1}},
		{metric: "sim.densephase_speedup", cfg: sim.Config{DensePhase: 0.25}, speedup: true},
	}, wire: 256}
	sparse100k := roundSpec{n: 100_000, backend: graph.BackendSparse, proc: core.Push{},
		cfg: sim.Config{Workers: 1, MaxRounds: 64}, ratios: []ratio{
			{metric: "sim.par_speedup", cfg: sim.Config{Workers: parWorkers(), MaxRounds: 64}, speedup: true},
		}}
	sparse1m := roundSpec{n: 1_000_000, backend: graph.BackendSparse, proc: core.Pull{},
		cfg: sim.Config{MaxRounds: 10}}
	event := eventSpec{n: 100_000, maxEvents: 2_000_000,
		skew: "0.5,fast=8:0-999,park=0:50000-59999"}
	churned := churnSpec{cfg: churn.Config{Capacity: 16384, InitialMembers: 4096, SeedDegree: 3, Rate: 4,
		Backend: graph.BackendSparse}, rounds: 1000, scrapeEvery: 10}
	directed := directedSpec{n: 512, extra: 256, graphs: 5}
	return []workload{
		{"converge-2k", "the paper's experiment: push from a 2048-cycle to K_n on dense rows; act-bound, ~94% duplicate proposals",
			converge.setup, converge.trace},
		{"sparse-100k", "insert-heavy sparse rows: 64 push rounds at n=100k on the sharded engine; commit-bound, 43% of proposals accepted",
			sparse100k.setup, sparse100k.trace},
		{"sparse-1m", "memory-bound: 10 pull rounds at n=1M, two dependent random row reads per node over a ~175 MiB heap",
			sparse1m.setup, sparse1m.trace},
		{"event-100k", "the event runtime: 2M activations at n=100k, where the pending-event heap and Exp redraw do most of the work",
			event.setup, event.trace},
		{"churn-observed", "the ops-dashboard shape: a stepped churn session with joins and leaves, a live bus, analyzers and scrapes",
			churned.setup, churned.trace},
		{"directed-512", "the paper's third process: five strongly connected 512-node digraphs run to closure on the directed twin",
			directed.setup, directed.trace},
	}
}

// invariants converts a CheckInvariants panic into an error.
func invariants(check func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("invariants: %v", p)
		}
	}()
	check()
	return nil
}

// roundSpec is an undirected synchronous-round workload: proc on a cycle of
// n nodes under cfg. MaxRounds == 0 runs to K_n, otherwise the budget is
// the stop condition.
type roundSpec struct {
	n       int
	backend graph.Backend
	proc    core.Process
	cfg     sim.Config
	// ratios are further engine configurations the traced pass prices
	// against cfg on the same input; wire, when > 0, is the size of the
	// wire-level cluster it prices alongside.
	ratios []ratio
	wire   int
}

// ratio prices one alternative engine configuration: its untraced drive
// time over the workload's own, or the inverse when speedup is set.
type ratio struct {
	metric  string
	cfg     sim.Config
	speedup bool
}

func (s roundSpec) setup(r *rng.Rand) op { return s.setupWith(s.cfg)(r) }

// setupWith is setup under another engine configuration.
func (s roundSpec) setupWith(cfg sim.Config) func(r *rng.Rand) op {
	return func(r *rng.Rand) op {
		g := gen.Cycle(s.n, s.backend)
		m0 := g.M()
		sess := sim.NewSession(g, s.proc, r, cfg)
		return op{
			run: func() {
				sess.Run()
				sess.Close()
			},
			verify: func(deep bool) (outcome, error) {
				res := sess.Stats()
				return outcome{res, res.Proposals, res.Rounds * s.n}, s.check(g, m0, res, deep)
			},
		}
	}
}

func (s roundSpec) check(g *graph.Undirected, m0 int, res sim.Result, deep bool) error {
	switch {
	case s.cfg.MaxRounds == 0 && !(res.Converged && g.IsComplete() && res.NewEdges == s.n*(s.n-1)/2-m0):
		return fmt.Errorf("did not reach K_n: %+v", res)
	case s.cfg.MaxRounds > 0 && res.Rounds != s.cfg.MaxRounds:
		return fmt.Errorf("ran %d rounds, budget %d", res.Rounds, s.cfg.MaxRounds)
	case res.Proposals != res.NewEdges+res.DuplicateProposals:
		return fmt.Errorf("proposals %d != new %d + duplicate %d", res.Proposals, res.NewEdges, res.DuplicateProposals)
	case g.M() != m0+res.NewEdges:
		return fmt.Errorf("M %d != initial %d + new %d", g.M(), m0, res.NewEdges)
	}
	if deep {
		return invariants(g.CheckInvariants)
	}
	return nil
}

// eventSpec is the event-runtime workload: push on a sparse n-cycle under
// uniform rate-1 clocks for exactly maxEvents activations.
type eventSpec struct {
	n         int
	maxEvents int
	// skew is the heterogeneous rate spec the traced pass re-runs the op
	// under: the scheduler's second use.
	skew string
}

func never(*graph.Undirected) bool { return false }

func (s eventSpec) setup(r *rng.Rand) op { return s.setupWith(nil)(r) }

// setupWith is setup under a rate map (nil = uniform rate 1).
func (s eventSpec) setupWith(rates func() *eventsim.RateMap) func(r *rng.Rand) op {
	return func(r *rng.Rand) op {
		g := gen.Cycle(s.n, graph.BackendSparse)
		m0 := g.M()
		cfg := eventsim.Config{MaxEvents: s.maxEvents, Done: never}
		if rates != nil {
			cfg.Rates = rates()
		}
		sess := eventsim.New(g, core.Push{}, r, cfg)
		return op{
			run: func() { sess.Run() },
			verify: func(deep bool) (outcome, error) {
				res := sess.Stats()
				return outcome{res, res.Proposals, res.Events}, s.check(g, m0, res, deep)
			},
		}
	}
}

func (s eventSpec) check(g *graph.Undirected, m0 int, res eventsim.Result, deep bool) error {
	switch {
	case res.Events != s.maxEvents || !res.BudgetExhausted:
		return fmt.Errorf("stopped at %d events (budget %d, exhausted %v)", res.Events, s.maxEvents, res.BudgetExhausted)
	case g.M() != m0+res.NewEdges:
		return fmt.Errorf("M %d != initial %d + new %d", g.M(), m0, res.NewEdges)
	}
	if deep {
		return invariants(g.CheckInvariants)
	}
	return nil
}

// churnSpec is the observed churn workload: rounds steps of a churn
// session with the analyzer pack, the exporter and a trajectory on its bus,
// scraped every scrapeEvery-th round.
type churnSpec struct {
	cfg         churn.Config
	rounds      int
	scrapeEvery int
}

// churnResult is what a churn run reports for the replay check.
type churnResult struct {
	Coverage   float64
	Members    int
	M          int
	DeltaEdges int
}

// churnRun is one churn session being driven. Untraced runs leave tr nil;
// bare runs subscribe nothing and scrape nothing.
type churnRun struct {
	spec churnSpec
	cs   *churn.Session
	prom *export.Prometheus
	tr   *tracer

	m0          int
	deltaEdges  int
	attempts    int
	scrapeBytes int64
	scrapeErr   error
	// between, if set, runs after every step outside any span.
	between func(round int, d *sim.RoundDelta)
}

// timed wraps sub so that each OnEvent is a span.
func timed(tr *tracer, name string, sub stream.Subscriber) stream.Subscriber {
	return stream.SubscriberFunc(func(e *stream.Event) {
		tr.begin(name)
		sub.OnEvent(e)
		tr.end()
	})
}

func (s churnSpec) newRun(r *rng.Rand, observed bool, tr *tracer) *churnRun {
	c := &churnRun{spec: s, tr: tr}
	c.cs = churn.NewSession(s.cfg, r)
	c.m0 = c.cs.Graph().M()
	if !observed {
		return c
	}
	health := analyze.NewHealth()
	c.prom = export.NewPrometheus()
	c.prom.Attach(health)
	subs := []struct {
		name string
		sub  stream.Subscriber
	}{
		{"analyze.health", health},
		{"export.onevent", c.prom},
		{"metrics.trajectory", &metrics.Trajectory{}},
	}
	for _, s := range subs {
		if tr != nil {
			s.sub = timed(tr, s.name, s.sub)
		}
		c.cs.Subscribe(s.sub)
	}
	return c
}

func (c *churnRun) drive() {
	for round := 1; round <= c.spec.rounds; round++ {
		c.tr.begin("churn.step")
		d := c.cs.Step()
		c.tr.end()
		c.deltaEdges += len(d.NewEdges)
		c.attempts += d.Members
		if c.prom != nil && round%c.spec.scrapeEvery == 0 {
			c.tr.begin("export.scrape")
			n, err := c.prom.WriteTo(io.Discard)
			c.tr.end()
			c.scrapeBytes += n
			if err != nil {
				c.scrapeErr = err
			}
		}
		if c.between != nil {
			c.between(round, d)
		}
	}
}

func (c *churnRun) verify(deep bool) (outcome, error) {
	cs, g := c.cs, c.cs.Graph()
	res := churnResult{cs.Coverage(), cs.Members(), g.M(), c.deltaEdges}
	// The session's proposal counter is not reachable through
	// churn.Session, so proposals_per_s counts push attempts: one per
	// member per round.
	out := outcome{res, c.attempts, c.spec.rounds * c.spec.cfg.Capacity}
	switch {
	case c.scrapeErr != nil:
		return out, fmt.Errorf("scrape: %w", c.scrapeErr)
	case cs.Round() != c.spec.rounds:
		return out, fmt.Errorf("ran %d rounds, want %d", cs.Round(), c.spec.rounds)
	case res.Members != c.spec.cfg.InitialMembers || cs.JoinsDropped() != 0:
		return out, fmt.Errorf("members %d (want %d), joins dropped %d", res.Members, c.spec.cfg.InitialMembers, cs.JoinsDropped())
	case !(res.Coverage > 0 && res.Coverage <= 1):
		return out, fmt.Errorf("coverage %v outside (0, 1]", res.Coverage)
	case res.M != c.m0+c.deltaEdges:
		return out, fmt.Errorf("M %d != initial %d + delta edges %d", res.M, c.m0, c.deltaEdges)
	}
	if deep {
		return out, invariants(g.CheckInvariants)
	}
	return out, nil
}

func (s churnSpec) setup(r *rng.Rand) op { return s.setupWith(true)(r) }

// setupWith is setup with or without the observers.
func (s churnSpec) setupWith(observed bool) func(r *rng.Rand) op {
	return func(r *rng.Rand) op {
		c := s.newRun(r, observed, nil)
		return op{run: c.drive, verify: c.verify}
	}
}

// directedSpec is the directed workload: graphs random strongly connected
// digraphs of n nodes and n+extra arcs, each run to closure by the
// directed two-hop walk on the sharded engine's inline schedule.
type directedSpec struct {
	n      int
	extra  int
	graphs int
}

// directedRun is the sessions of one directed op, in graph order.
type directedRun struct {
	spec     directedSpec
	graphs   []*graph.Directed
	m0       []int
	sessions []*sim.DirectedSession
}

// newRun builds the op's graphs and sessions. Graph k is drawn from the
// k-th split of r and its session from that split's next split, so every
// graph's run is independent of how many came before.
func (s directedSpec) newRun(r *rng.Rand, tr *tracer) *directedRun {
	d := &directedRun{spec: s}
	for _, rk := range r.SplitN(s.graphs) {
		tr.begin("gen.build")
		g := gen.RandomStronglyConnected(s.n, s.extra, rk)
		tr.end()
		tr.begin("session.new")
		sess := sim.NewDirectedSession(g, core.DirectedTwoHop{}, rk.Split(), sim.DirectedConfig{Workers: 1})
		tr.end()
		d.graphs = append(d.graphs, g)
		d.m0 = append(d.m0, g.M())
		d.sessions = append(d.sessions, sess)
	}
	return d
}

func (d *directedRun) drive() {
	for _, sess := range d.sessions {
		sess.Run()
		sess.Close()
	}
}

func (d *directedRun) verify(deep bool) (outcome, error) {
	var out outcome
	var all []sim.DirectedResult
	var err error
	for k, sess := range d.sessions {
		res, g := sess.Stats(), d.graphs[k]
		all = append(all, res)
		out.proposals += res.Proposals
		out.events += res.Rounds * d.spec.n
		switch {
		case err != nil:
		case !res.Converged:
			err = fmt.Errorf("graph %d did not reach closure: %+v", k, res)
		case res.Proposals != res.NewArcs+res.DuplicateProposals:
			err = fmt.Errorf("graph %d: proposals %d != new %d + duplicate %d", k, res.Proposals, res.NewArcs, res.DuplicateProposals)
		case g.M() != d.m0[k]+res.NewArcs:
			err = fmt.Errorf("graph %d: M %d != initial %d + new %d", k, g.M(), d.m0[k], res.NewArcs)
		}
	}
	out.result = fmt.Sprint(all)
	if err == nil && deep {
		// The closure recomputation is independent of the session's own
		// missing-arc counter; at ~0.4 s it runs on one graph only.
		if !d.graphs[0].IsClosed() {
			err = fmt.Errorf("graph 0 reported closure but IsClosed() is false")
		} else {
			err = invariants(d.graphs[0].CheckInvariants)
		}
	}
	return out, err
}

func (s directedSpec) setup(r *rng.Rand) op {
	d := s.newRun(r, nil)
	return op{run: d.drive, verify: d.verify}
}
