package sim

import (
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// This file implements an asynchronous scheduler ablation. The paper's
// model is synchronous rounds; a standard alternative models each node with
// an independent rate-1 Poisson clock, which discretizes to: at every tick,
// one uniformly random node activates. n ticks ≈ one parallel round, so
// convergence measured in ticks/n is directly comparable to synchronous
// round counts — experiment E15 checks that the asymptotics are
// scheduler-independent (the constants shift slightly because an activated
// node immediately observes all previously added edges).
//
// Like its synchronous siblings, the scheduler is exposed as a resumable
// AsyncSession whose Step advances one parallel round (n ticks, or fewer
// if the run terminates mid-round); RunAsync is a thin wrapper driving a
// session to completion.

// AsyncResult reports an asynchronous run.
type AsyncResult struct {
	// Ticks is the number of single-node activations executed.
	Ticks int
	// ParallelRounds is Ticks / n, the synchronous-comparable time.
	ParallelRounds float64
	// Converged reports whether the Done predicate was reached.
	Converged bool
	// BudgetExhausted reports that the run stopped because the MaxTicks
	// budget ran out. It is the explicit budget-stop signal — previously
	// only inferable from Converged == false, which also covers sessions
	// merely paused between steps (the same contract as
	// eventsim.Result.BudgetExhausted; TestAsyncMaxTicksBudgetContract
	// pins it on this runtime, TestEventBudgetContract on the other).
	BudgetExhausted bool
	// Proposals and NewEdges mirror Result.
	Proposals int
	NewEdges  int
}

// AsyncConfig controls an asynchronous run or session.
type AsyncConfig struct {
	// MaxTicks bounds the run, mirroring Config.MaxRounds tick for round:
	// 0 selects the default budget of n × DefaultMaxRounds(n) ticks
	// (saturating, see ActivationBudget); any negative value means
	// unbounded, which is meaningful only for stepped AsyncSessions (the
	// RunAsync facade normalizes negatives back to the default budget — a
	// fire-and-forget run could never return); a
	// positive budget that runs out mid-round stops the session exactly at
	// MaxTicks ticks with Converged == false
	// (TestAsyncMaxTicksBudgetContract pins all three).
	MaxTicks int
	// Done overrides the convergence predicate (default: complete graph).
	Done func(g *graph.Undirected) bool
}

// AsyncSession is a resumable asynchronous run: Step executes the ticks of
// one parallel round, Run drives to the Done predicate or the tick budget.
type AsyncSession struct {
	g *graph.Undirected
	p core.Process
	r *rng.Rand

	n        int
	maxTicks int
	done     func(*graph.Undirected) bool

	started  bool
	finished bool

	res    AsyncResult
	rounds int // parallel-round boundaries passed (delta numbering)

	accepted []graph.Edge
	propose  func(a, b int)

	// Observation bus and delta accumulator, mirroring Session.
	bus stream.Bus
	acc *stream.DeltaAccumulator
}

// NewAsyncSession constructs a resumable asynchronous session over g.
// Nothing is consumed from r until the first step.
func NewAsyncSession(g *graph.Undirected, p core.Process, r *rng.Rand, cfg AsyncConfig) *AsyncSession {
	n := g.N()
	maxTicks := cfg.MaxTicks
	if maxTicks == 0 {
		maxTicks = ActivationBudget(DefaultMaxRounds(n), n)
	} else if maxTicks < 0 {
		maxTicks = math.MaxInt
	}
	done := cfg.Done
	if done == nil {
		done = (*graph.Undirected).IsComplete
	}
	return &AsyncSession{
		g:        g,
		p:        p,
		r:        r,
		n:        n,
		maxTicks: maxTicks,
		done:     done,
	}
}

// Subscribe attaches sub to the session's observation bus: a KindRound
// event fires after every completed parallel round (n ticks), plus the
// final partial round at termination. Attaching subscribers does not
// perturb the run; payloads are reused across rounds — copy anything
// retained.
func (s *AsyncSession) Subscribe(sub stream.Subscriber) {
	s.bus.Subscribe(sub)
	if s.acc == nil {
		s.acc = stream.NewDeltaAccumulator(s.n)
	}
}

func (s *AsyncSession) start() {
	s.started = true
	if s.done(s.g) {
		s.res.Converged = true
		s.finished = true
		return
	}
	if s.n == 0 {
		s.finished = true
		return
	}
	// The propose closure is hoisted so steady-state ticks allocate nothing.
	s.propose = func(a, b int) {
		s.res.Proposals++
		if s.g.AddEdge(a, b) {
			s.res.NewEdges++
			if s.acc != nil {
				s.accepted = append(s.accepted, graph.Edge{U: a, V: b}.Norm())
			}
		}
	}
}

// emitRound fills and publishes the accumulated delta for the given
// parallel round.
func (s *AsyncSession) emitRound(round int) {
	if s.acc != nil {
		s.acc.Fill(round, s.g, s.accepted)
		s.bus.EmitRound(s.g, &s.acc.D, float64(round))
	}
	s.accepted = s.accepted[:0]
}

// step executes the ticks of one parallel round (fewer if the run
// terminates mid-round) and reports whether the session can continue.
func (s *AsyncSession) step() bool {
	if s.finished {
		return false
	}
	if !s.started {
		s.start()
		if s.finished {
			return false
		}
	}
	for s.res.Ticks < s.maxTicks {
		s.res.Ticks++
		u := s.r.Intn(s.n)
		s.p.Act(s.g, u, s.r, s.propose)
		if s.res.Ticks%s.n == 0 {
			// Parallel-round boundary: emit, then test convergence, exactly
			// the tick loop order of the pre-session RunAsync.
			s.rounds++
			s.emitRound(s.rounds)
			if s.done(s.g) {
				s.res.Converged = true
				s.finished = true
			}
			s.res.ParallelRounds = float64(s.res.Ticks) / float64(s.n)
			if !s.finished && s.res.Ticks >= s.maxTicks {
				// The budget ran out exactly at the boundary: the round is
				// complete, but the session cannot continue.
				s.finished = true
				s.res.BudgetExhausted = true
			}
			return !s.finished
		}
		if s.done(s.g) {
			// Terminated mid-round: emit the final partial round.
			s.res.Converged = true
			s.finished = true
			s.emitRound(s.rounds + 1)
			s.res.ParallelRounds = float64(s.res.Ticks) / float64(s.n)
			return false
		}
	}
	// Tick budget exhausted mid-round.
	s.finished = true
	s.res.BudgetExhausted = true
	if len(s.accepted) > 0 || s.res.Ticks%s.n != 0 {
		s.emitRound(s.rounds + 1)
	}
	s.res.ParallelRounds = float64(s.res.Ticks) / float64(s.n)
	return false
}

// Step executes one parallel round (n ticks, or fewer at termination) and
// returns its delta plus whether the session can continue. The delta and
// its slices are reused across rounds — copy anything retained.
func (s *AsyncSession) Step() (d *RoundDelta, ok bool) {
	if s.acc == nil {
		s.acc = stream.NewDeltaAccumulator(s.n)
	}
	before := s.res.Ticks
	ok = s.step()
	if s.res.Ticks == before {
		return nil, false
	}
	return &s.acc.D, ok
}

// Run drives the session to the Done predicate or the tick budget.
func (s *AsyncSession) Run() AsyncResult {
	for s.step() {
	}
	return s.res
}

// Round returns the number of completed parallel rounds (Ticks / n). O(1).
func (s *AsyncSession) Round() int {
	if s.n == 0 {
		return 0
	}
	return s.res.Ticks / s.n
}

// EdgesRemaining returns the number of node pairs still missing. O(1).
func (s *AsyncSession) EdgesRemaining() int { return s.g.MissingEdges() }

// Stats returns a snapshot of the cumulative run statistics. O(1).
func (s *AsyncSession) Stats() AsyncResult {
	res := s.res
	if s.n > 0 {
		res.ParallelRounds = float64(res.Ticks) / float64(s.n)
	}
	return res
}

// Converged reports whether the Done predicate has fired.
func (s *AsyncSession) Converged() bool { return s.res.Converged }

// Graph exposes the session's live graph (read-only use between steps).
func (s *AsyncSession) Graph() *graph.Undirected { return s.g }

// RunAsync executes p under the uniform single-activation scheduler until
// convergence or the tick budget is exhausted. It is a thin wrapper over an
// AsyncSession driven to completion; as with Run, the facade keeps its
// historical MaxTicks <= 0 ⇒ default-budget semantics.
func RunAsync(g *graph.Undirected, p core.Process, r *rng.Rand, cfg AsyncConfig) AsyncResult {
	if cfg.MaxTicks < 0 {
		cfg.MaxTicks = 0
	}
	return NewAsyncSession(g, p, r, cfg).Run()
}
