package gossipdisc

// This file is the root package's resumable-session surface: the round
// session and the event-driven session plus a functional-options
// constructor for each — the one way to configure a run from this
// package:
//
//	sess := gossipdisc.NewSession(g,
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
// Run is a convenience over it, bit-identical to driving a session
// manually (see DESIGN.md "Session lifecycle").

import (
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// Session types (see internal/sim/session.go and internal/eventsim for the
// full lifecycle, determinism, and mutation contracts).
type (
	// Session is a resumable undirected run: Step / Run / RunUntil drive
	// it, Round / EdgesRemaining / Stats read progress in O(1), and
	// TrackMembership / InsertNode / RemoveNode / AddEdge mutate the
	// membership between steps with O(1) Coverage.
	Session = sim.Session
	// EventSession steps the event-driven runtime (continuous per-node
	// Poisson clocks, internal/eventsim) one unit of simulated time at a
	// time, with exact event times on its deltas and mid-run rate mutation
	// (SetNodeRate / SetClassRate).
	EventSession = eventsim.Session
	// RateMap assigns per-node activation rates for the event-driven
	// runtime: named classes (DefineClass / AssignClass) plus per-node
	// overrides, mutable between steps.
	RateMap = eventsim.RateMap
)

// NewRateMap returns a RateMap assigning every one of the n nodes the
// default rate def (0 parks a node: it never activates).
func NewRateMap(n int, def float64) *RateMap { return eventsim.NewRateMap(n, def) }

// SessionOption configures NewSession and NewEventSession. WithRates
// applies to NewEventSession only; NewSession ignores it.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	seed  uint64
	proc  Process
	cfg   sim.Config
	rates *RateMap
	subs  []stream.Subscriber
}

// WithProcess selects the process (default Push). A Population from
// ParseRoleSpec is a Process too, and stays mutable between steps.
func WithProcess(p Process) SessionOption {
	return func(o *sessionOptions) { o.proc = p }
}

// WithSeed seeds the session's deterministic generator (default seed 1).
func WithSeed(seed uint64) SessionOption {
	return func(o *sessionOptions) { o.seed = seed }
}

// WithRates hands an event session its per-node activation rates (default:
// uniform rate 1). The session takes ownership of the map: mutate it
// through EventSession.SetNodeRate / SetClassRate so the session follows.
func WithRates(m *RateMap) SessionOption {
	return func(o *sessionOptions) { o.rates = m }
}

// WithMaxRounds caps the session's round budget: 0 (default) selects the
// generous w.h.p.-safe default, negative means unbounded (open-ended
// stepping, e.g. under churn).
func WithMaxRounds(n int) SessionOption {
	return func(o *sessionOptions) { o.cfg.MaxRounds = n }
}

// WithDone overrides the convergence predicate (default: the graph is
// complete).
func WithDone(pred func(g *Graph) bool) SessionOption {
	return func(o *sessionOptions) { o.cfg.Done = pred }
}

// WithAnalyzers subscribes analyzers (or any event Subscribers — a *Health
// pack, a Prometheus exporter, a Trajectory, a SubscriberFunc) to the
// session's event bus at construction, in argument order. Subscribers
// never change results (the bus dispatches synchronously on the stepping
// goroutine and draws no randomness — see DESIGN.md "Observing a run").
func WithAnalyzers(subs ...Subscriber) SessionOption {
	return func(o *sessionOptions) { o.subs = append(o.subs, subs...) }
}

func applyOptions(opts []SessionOption) *sessionOptions {
	o := &sessionOptions{seed: 1, proc: core.Push{}}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// NewSession constructs a resumable session over g with the given options
// (process, seed, engine, subscribers, budget). The zero-option call runs
// Push from seed 1 on the sequential engine.
func NewSession(g *Graph, opts ...SessionOption) *Session {
	o := applyOptions(opts)
	s := sim.NewSession(g, o.proc, rng.New(o.seed), o.cfg)
	for _, sub := range o.subs {
		s.Subscribe(sub)
	}
	return s
}

// NewEventSession constructs a resumable event-driven session over g: per-
// node Poisson clocks (WithRates; uniform rate 1 by default), Step to the
// next unit-time boundary, and mid-run rate mutation; subscribe an Age for
// its exact age of information. The event budget follows MaxRounds × n
// when WithMaxRounds is set (negative keeps meaning unbounded). Runs are
// bit-replayable from (seed, rates) at any GOMAXPROCS setting.
func NewEventSession(g *Graph, opts ...SessionOption) *EventSession {
	o := applyOptions(opts)
	budget := -1
	if o.cfg.MaxRounds >= 0 {
		budget = sim.ActivationBudget(o.cfg.MaxRounds, g.N())
	}
	s := eventsim.New(g, o.proc, rng.New(o.seed), eventsim.Config{Rates: o.rates, MaxEvents: budget, Done: o.cfg.Done})
	for _, sub := range o.subs {
		s.Subscribe(sub)
	}
	return s
}
