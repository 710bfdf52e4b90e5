package gossipdisc

// This file is the root package's resumable-session surface: re-exports of
// the engine sessions plus a functional-options constructor — the one way
// to configure a run from this package:
//
//	sess := gossipdisc.NewSession(g,
//	    gossipdisc.WithWorkers(1),
//	    gossipdisc.WithAnalyzers(traj),
//	    gossipdisc.WithMaxRounds(10_000),
//	)
//	defer sess.Close()
//	for {
//	    delta, more := sess.Step()
//	    // inspect delta, mutate membership, checkpoint, ...
//	    if !more {
//	        break
//	    }
//	}
//
// Run and RunDirected are two conveniences over it, bit-identical to
// driving a session manually (see DESIGN.md "Session lifecycle").

import (
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// Session types (see internal/sim/session.go for the full lifecycle,
// determinism, and mutation contracts).
type (
	// Session is a resumable undirected run: Step / Run / RunUntil drive
	// it, Round / EdgesRemaining / Stats read progress in O(1), and
	// TrackMembership / InsertNode / RemoveNode / AddEdge mutate the
	// membership between steps with O(1) Coverage.
	Session = sim.Session
	// DirectedSession is the directed counterpart, with the O(1)
	// ClosureArcsRemaining progress accessor.
	DirectedSession = sim.DirectedSession
	// AsyncSession steps the asynchronous-scheduler ablation one parallel
	// round (n ticks) at a time.
	AsyncSession = sim.AsyncSession
	// EventSession steps the event-driven runtime (continuous per-node
	// Poisson clocks, internal/eventsim) one unit of simulated time at a
	// time, with exact event times on its deltas and mid-run rate mutation
	// (SetNodeRate / SetClassRate). At uniform rates it reproduces the tick
	// scheduler's activations exactly.
	EventSession = eventsim.Session
	// EventResult reports an event-driven run (time, events, convergence
	// and budget flags).
	EventResult = eventsim.Result
	// RateMap assigns per-node activation rates for the event-driven
	// runtime: named classes plus per-node overrides, mutable between
	// steps. Build one with NewRateMap / UniformRates / ParseRateSpec.
	RateMap = eventsim.RateMap
)

// NewRateMap returns a RateMap assigning every one of the n nodes the
// default rate def (0 parks a node: it never activates).
func NewRateMap(n int, def float64) *RateMap { return eventsim.NewRateMap(n, def) }

// UniformRates returns the homogeneous rate-1 map on n nodes, under which
// the event runtime reproduces the tick scheduler's activations exactly.
func UniformRates(n int) *RateMap { return eventsim.Uniform(n) }

// ParseRateSpec resolves a textual rate spec ("R" default rate,
// "name=R:lo-hi" classes over inclusive node ranges, comma-separated)
// against a population of n nodes — the grammar behind the binaries'
// -rates flag.
func ParseRateSpec(spec string, n int) (*RateMap, error) {
	return eventsim.ParseRateSpec(spec, n)
}

// SessionOption configures NewSession / NewDirectedSession. Options that
// only apply to one session family are silently ignored by the other
// (e.g. WithDone by a directed session).
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	r     *rng.Rand
	seed  uint64
	proc  Process
	dproc DirectedProcess
	cfg   sim.Config
	dcfg  sim.DirectedConfig
	rates *RateMap
	subs  []stream.Subscriber
}

// WithProcess selects the undirected process (default Push).
func WithProcess(p Process) SessionOption {
	return func(o *sessionOptions) { o.proc = p }
}

// WithDirectedProcess selects the directed process (default DirectedTwoHop).
func WithDirectedProcess(p DirectedProcess) SessionOption {
	return func(o *sessionOptions) { o.dproc = p }
}

// WithSeed seeds the session's deterministic generator (default seed 1).
func WithSeed(seed uint64) SessionOption {
	return func(o *sessionOptions) { o.seed = seed }
}

// WithRand hands the session an existing generator — e.g. a Split child —
// overriding WithSeed in either order.
func WithRand(r *Rand) SessionOption {
	return func(o *sessionOptions) { o.r = r }
}

// WithWorkers selects the round engine: 0 (default) the classic sequential
// engine, w >= 1 the sharded engine, whose fixed 32-node shards act inline
// on their own generator streams, so results are bit-identical for every
// w >= 1. A negative w panics at construction.
func WithWorkers(w int) SessionOption {
	return func(o *sessionOptions) { o.cfg.Workers = w; o.dcfg.Workers = w }
}

// WithDensePhase arms the dense-phase engine mode with the given
// threshold fraction in (0, 1]: once the remaining work (missing node
// pairs, or missing closure arcs for a directed session) drops to frac of
// its total, the act phase samples proposals directly from the complement —
// nodes weighted by their missing work, partners uniform within each
// node's missing set — so late rounds cost time proportional to the work
// remaining instead of scanning all n nodes mostly to propose duplicates.
// Dense rounds bypass the process entirely (behavior chains such as Fail stop
// applying once the phase flips): the mode is an engine-level accelerator
// for convergence runs, not a re-expression of the paper's process.
// 0 (the default) disables the mode and keeps legacy results bit-identical;
// when armed the trajectory is still deterministic, and bit-identical for
// every worker count >= 1. Applies to synchronous commits only (the eager
// ablation ignores it); fractions outside [0, 1] panic at construction.
func WithDensePhase(frac float64) SessionOption {
	return func(o *sessionOptions) { o.cfg.DensePhase = frac; o.dcfg.DensePhase = frac }
}

// WithRates hands an event session its per-node activation rates (default:
// uniform rate 1). Applies to NewEventSession only; the tick-based
// sessions ignore it. The session takes ownership of the map: mutate it
// through EventSession.SetNodeRate / SetClassRate so the session follows.
func WithRates(m *RateMap) SessionOption {
	return func(o *sessionOptions) { o.rates = m }
}

// WithMaxRounds caps the session's round budget: 0 (default) selects the
// generous w.h.p.-safe default, negative means unbounded (open-ended
// stepping, e.g. under churn).
func WithMaxRounds(n int) SessionOption {
	return func(o *sessionOptions) { o.cfg.MaxRounds = n; o.dcfg.MaxRounds = n }
}

// WithCommitMode selects the commit semantics (default CommitSynchronous;
// CommitEager is the ablation and ignores WithWorkers).
func WithCommitMode(m CommitMode) SessionOption {
	return func(o *sessionOptions) { o.cfg.Mode = m; o.dcfg.Mode = m }
}

// WithDone overrides the undirected convergence predicate (default: the
// graph is complete).
func WithDone(pred func(g *Graph) bool) SessionOption {
	return func(o *sessionOptions) { o.cfg.Done = pred }
}

// WithDirectedDone overrides the directed termination predicate (default:
// the graph contains the transitive closure of the initial graph).
func WithDirectedDone(pred func(g *Digraph) bool) SessionOption {
	return func(o *sessionOptions) { o.dcfg.Done = pred }
}

// WithAnalyzers subscribes analyzers (or any event Subscribers — a *Health
// pack, a Prometheus exporter, a metrics Trajectory, a SubscriberFunc) to
// the session's event bus at construction, in argument order. Applies to
// every session family; subscribers never change results (the bus
// dispatches synchronously on the stepping goroutine and draws no
// randomness — see DESIGN.md "Observing a run").
func WithAnalyzers(subs ...Subscriber) SessionOption {
	return func(o *sessionOptions) { o.subs = append(o.subs, subs...) }
}

func applyOptions(opts []SessionOption) *sessionOptions {
	o := &sessionOptions{
		seed:  1,
		proc:  core.Push{},
		dproc: core.DirectedTwoHop{},
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.r == nil {
		o.r = rng.New(o.seed)
	}
	return o
}

// activations converts the WithMaxRounds budget to ticks or events on n
// nodes: 0 keeps the runtime's default, negative stays unbounded.
func (o *sessionOptions) activations(n int) int {
	if o.cfg.MaxRounds < 0 {
		return -1
	}
	return sim.ActivationBudget(o.cfg.MaxRounds, n)
}

// NewSession constructs a resumable session over g with the given options
// (process, seed, engine, subscribers, budget). The zero-option call runs
// Push from seed 1 on the sequential engine.
func NewSession(g *Graph, opts ...SessionOption) *Session {
	o := applyOptions(opts)
	s := sim.NewSession(g, o.proc, o.r, o.cfg)
	for _, sub := range o.subs {
		s.Subscribe(sub)
	}
	return s
}

// NewDirectedSession constructs a resumable directed session over g; the
// zero-option call runs DirectedTwoHop from seed 1.
func NewDirectedSession(g *Digraph, opts ...SessionOption) *DirectedSession {
	o := applyOptions(opts)
	s := sim.NewDirectedSession(g, o.dproc, o.r, o.dcfg)
	for _, sub := range o.subs {
		s.Subscribe(sub)
	}
	return s
}

// NewAsyncSession constructs a resumable asynchronous session over g. Only
// the process, seed/rand, Done, and analyzer options apply; the tick budget
// follows MaxRounds × n when WithMaxRounds is set (negative keeps meaning
// unbounded).
func NewAsyncSession(g *Graph, opts ...SessionOption) *AsyncSession {
	o := applyOptions(opts)
	s := sim.NewAsyncSession(g, o.proc, o.r, sim.AsyncConfig{MaxTicks: o.activations(g.N()), Done: o.cfg.Done})
	for _, sub := range o.subs {
		s.Subscribe(sub)
	}
	return s
}

// NewEventSession constructs a resumable event-driven session over g: per-
// node Poisson clocks (WithRates; uniform rate 1 by default), Step to the
// next unit-time boundary, and mid-run rate mutation; subscribe an Age for
// its exact age of information.
// Only the process, seed/rand, rates, Done, and analyzer options apply; the
// event budget follows MaxRounds × n when WithMaxRounds is set (negative
// keeps meaning unbounded). Runs are bit-replayable from (seed, rates) at
// any GOMAXPROCS setting, and at uniform rates the session reproduces the
// tick scheduler's activations exactly: the same nodes act with the same
// draws, on the generator's second Split.
func NewEventSession(g *Graph, opts ...SessionOption) *EventSession {
	o := applyOptions(opts)
	s := eventsim.New(g, o.proc, o.r, eventsim.Config{Rates: o.rates, MaxEvents: o.activations(g.N()), Done: o.cfg.Done})
	for _, sub := range o.subs {
		s.Subscribe(sub)
	}
	return s
}

// Cross-trial aggregation (see internal/sim/aggregate.go): TrialsAggregate
// runs trials exactly as Trials does while streaming per-round cross-trial
// aggregates from each trial's delta stream.
type RoundAggregate = sim.RoundAggregate

// TrialsAggregate runs numTrials independent deterministic trials of p and
// returns both the per-trial results (bit-identical to Trials) and the
// streamed per-round cross-trial aggregates (mean/CI95 minimum degree,
// dissemination rate, mean edge fraction) without storing any per-trial
// snapshot series. Trials run on a GOMAXPROCS-wide pool; both outputs are
// byte-identical to a strictly sequential harness (sim.TrialsAggregateOn
// exposes the pool bound).
func TrialsAggregate(numTrials int, seed uint64, build func(trial int, r *Rand) *Graph, p Process) ([]Result, []RoundAggregate) {
	return sim.TrialsAggregate(numTrials, seed, build, p, sim.Config{})
}
