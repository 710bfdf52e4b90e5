// Package eventsim is the event-driven asynchronous runtime for the
// discovery processes in which every node activates on its own Poisson
// clock with its own rate.
//
// The uniform model discretizes homogeneous rate-1 Poisson clocks — one
// uniform node per tick, n ticks ≈ one parallel round — and sim.RunAsync
// runs it as a plain loop. That cannot express the workloads the
// heterogeneous gossip literature studies (fast/slow/mobile nodes, rate
// allocation under a total budget, age-of-information staleness after
// Bastopcu et al., see PAPERS.md): this package makes the schedule itself first-class. It
// samples the superposition of the n clocks as one jump chain — activations
// at rate Λ = Σ rates in continuous time, each landing on node u with
// probability Rate(u)/Λ (chain.go) — from two split generator streams, one
// for the clock and one for the actions, so a run is a pure function of
// (seed, rates): bit-replayable for any GOMAXPROCS setting and under -race.
// At uniform rates the action stream sees exactly sim.RunAsync's draws, so
// the two make the same activations (TestEventMatchesTickExactly). This is
// the one asynchronous runtime: gossipsim -mode async, experiments E15 and
// E20, and the root package's EventSession all run on it.
//
// # Time, rounds, and the session contract
//
// Simulated time is continuous; one *parallel round* is one unit of
// simulated time (a rate-1 node activates once per unit time in
// expectation, so at uniform rates event-time convergence is directly
// comparable to the synchronous engine's round count — experiment E15
// tabulates the two side by side). Session
// mirrors the resumable-session contract of internal/sim: Step advances to
// the next parallel-round boundary and hands back the round's
// sim.RoundDelta, Run and RunUntil drive it, and Round/Time/Events/
// EdgesRemaining/Stats read progress in O(1). Commit semantics are the
// asynchronous ones: an activated node immediately observes every
// previously accepted edge. A subscribed session's deltas carry each new
// edge's exact event time in EdgeTimes, from which analyze.Age computes
// age of information.
package eventsim

import (
	"fmt"
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// Config controls an event-driven run or session.
type Config struct {
	// Rates assigns per-node activation rates (nil = Uniform(n), every node
	// at rate 1). The session adopts the map: mutate it through
	// Session.SetNodeRate / Session.SetClassRate so the sampler follows.
	// Rates.N() must equal the graph's node count.
	Rates *RateMap
	// MaxEvents bounds the run: 0 selects the default budget of n ×
	// sim.DefaultMaxRounds(n) events (saturating, see
	// sim.ActivationBudget); any negative value means unbounded, which is
	// meaningful only for stepped Sessions (the Run facade normalizes
	// negatives back to the default budget); a positive budget that runs
	// out stops the session at exactly MaxEvents events with
	// BudgetExhausted == true.
	MaxEvents int
	// Done overrides the convergence predicate (default: complete graph).
	// It must be a pure function of the graph: the runtime re-evaluates it
	// only when the graph changed.
	Done func(g *graph.Undirected) bool
}

// Result reports an event-driven run.
type Result struct {
	// Events is the number of node activations executed.
	Events int
	// Time is the simulated time at which the run stopped. Termination
	// mid-round reports the exact (fractional) event time.
	Time float64
	// ParallelRounds equals Time — one unit of simulated time is one
	// parallel round — and exists for symmetry with sim.AsyncResult.
	ParallelRounds float64
	// Converged reports whether the Done predicate was reached.
	Converged bool
	// BudgetExhausted reports that the run stopped because the MaxEvents
	// budget ran out — distinct from Converged == false alone, which also
	// covers stalled and merely-paused sessions (the budget contract shared
	// with sim.AsyncResult.BudgetExhausted).
	BudgetExhausted bool
	// Stalled reports that no node had a positive rate left to activate:
	// the run can never progress again.
	Stalled bool
	// Proposals and NewEdges mirror sim.Result.
	Proposals int
	NewEdges  int
}

// Session is a resumable event-driven run: Step advances to the next
// parallel-round boundary, Run drives to the Done predicate or the event
// budget, and the rate-mutation methods retune clocks between steps.
type Session struct {
	g *graph.Undirected
	p core.Process
	r *rng.Rand

	n         int
	maxEvents int
	done      func(*graph.Undirected) bool
	rates     *RateMap

	started  bool
	finished bool

	res    Result
	now    float64
	rounds int // completed parallel-round boundaries

	// The jump chain and its two streams: clock draws the gaps, the group
	// choices and the thinning variates, act the member picks and every Act
	// draw.
	chain *chain
	clock *rng.Rand
	act   *rng.Rand

	eventsInRound int // activations since the last emitted boundary
	emits         int // deltas emitted (full + partial), Step's progress marker

	accepted []graph.Edge
	times    []float64 // event time of each accepted edge
	propose  func(a, b int)

	// Observation bus and delta state: the runtime publishes a KindRound
	// event at every parallel-round boundary (with the exact event Time)
	// and a KindRateChange event for every rate retune. acc is the shared
	// accumulator from internal/stream — the same fill the synchronous
	// engines use, which is what makes every delta consumer
	// runtime-agnostic.
	bus stream.Bus
	acc *stream.DeltaAccumulator

	// hook, if non-nil, observes every activation as (node, time) — a
	// package-private tap the determinism property tests record the
	// activation sequence through.
	hook func(u int, t float64)

	// With predict, the planner (step) picks up to maxBatch activations
	// ahead, each act predicted to draw two raw words, and reads the lists
	// they pick (walk: as a pull walk's) into sink, which nothing reads;
	// without, it picks one at a time and predicts no draws.
	predict, walk bool
	sink          int32
}

// maxBatch is the most activations step plans ahead.
const maxBatch = 32

// New constructs a resumable event-driven session over g. Nothing is
// consumed from r until the first step; at that point r is split twice, the
// clock stream first and the act stream second (r itself is not used
// afterwards). It panics if cfg.Rates covers a different node count than g.
func New(g *graph.Undirected, p core.Process, r *rng.Rand, cfg Config) *Session {
	n := g.N()
	rates := cfg.Rates
	if rates == nil {
		rates = Uniform(n)
	}
	if rates.N() != n {
		panic(fmt.Sprintf("eventsim: RateMap covers %d nodes for a %d-node graph", rates.N(), n))
	}
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = sim.ActivationBudget(sim.DefaultMaxRounds(n), n)
	} else if maxEvents < 0 {
		maxEvents = math.MaxInt
	}
	done := cfg.Done
	if done == nil {
		done = (*graph.Undirected).IsComplete
	}
	s := &Session{
		g:         g,
		p:         p,
		r:         r,
		n:         n,
		maxEvents: maxEvents,
		done:      done,
		rates:     rates,
	}
	// The planner's table: Push and Pull draw two raw words per act unless
	// the node is isolated or a draw is rejected, which the check after the
	// act catches; any other process is planned one activation at a time.
	switch p.(type) {
	case core.Push, core.Pull:
		_, s.walk = p.(core.Pull)
		s.predict = true
	}
	return s
}

// Subscribe attaches sub to the session's observation bus. Subscribers
// receive a KindRound event at every parallel-round boundary (Time carries
// the exact simulated time, fractional for the final partial round) —
// including empty rounds in which no node activated, since time passing is
// itself signal for age metrics — and a KindRateChange event for every
// SetNodeRate / SetClassRate retune.
// Attaching subscribers does not perturb the run
// (TestBusEquivalenceEvent); payloads are reused across rounds — copy
// anything retained.
func (s *Session) Subscribe(sub stream.Subscriber) {
	s.bus.Subscribe(sub)
	if s.acc == nil {
		s.acc = stream.NewDeltaAccumulator(s.n)
	}
}

// start lazily initializes the run: the done-at-entry check, the two
// streams, the rate groups, and the hoisted propose closure.
func (s *Session) start() {
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
	s.clock = s.r.Split()
	s.act = s.r.Split()
	s.chain = newChain(s.rates)
	// The propose closure is hoisted so steady-state events allocate
	// nothing. Commits are eager (asynchronous semantics); an observed
	// session records each accepted edge with its exact event time.
	s.propose = func(a, b int) {
		s.res.Proposals++
		if s.g.AddEdge(a, b) {
			s.res.NewEdges++
			if s.acc != nil {
				s.accepted = append(s.accepted, graph.Edge{U: a, V: b}.Norm())
				s.times = append(s.times, s.now)
			}
		}
	}
}

// emitRound fills and publishes the accumulated delta for the given
// parallel round. Time carries the exact simulated time — the boundary
// itself for full rounds, the (fractional) termination time for the final
// partial one.
func (s *Session) emitRound(round int) {
	s.emits++
	if s.acc != nil {
		s.acc.Fill(round, s.g, s.accepted)
		s.acc.D.EdgeTimes = s.times
		s.bus.EmitRound(s.g, &s.acc.D, s.now)
	}
	s.accepted = s.accepted[:0]
	s.times = s.times[:0]
	s.eventsInRound = 0
}

// flushPartial emits the final partial round, if any activity is pending.
func (s *Session) flushPartial() {
	if s.eventsInRound > 0 {
		s.emitRound(s.rounds + 1)
	}
}

// step advances to the next parallel-round boundary (or termination) and
// reports whether the session can continue.
func (s *Session) step() bool {
	if s.finished {
		return false
	}
	if !s.started {
		s.start()
		if s.finished {
			return false
		}
	}
	if s.chain.total == 0 {
		// No node has a positive rate: the run can never progress.
		s.finished = true
		s.res.Stalled = true
		s.flushPartial()
		return false
	}
	target := float64(s.rounds + 1)
	// Per planned activation: its time, the clock state after its candidate,
	// the act state after its pick and predicted after its act, its draws.
	var (
		times                [maxBatch]float64
		clocks, picks, posts [maxBatch]rng.Rand
		draws                [maxBatch]graph.ActDraw
	)
replan:
	for t := s.now; ; {
		// Plan: the candidate loop on copies of the two streams. A
		// candidate past the boundary is dropped: the next step draws a
		// fresh gap, which memorylessness makes exact.
		clock, act := *s.clock, *s.act
		k := 0
		for k < maxBatch && (k == 0 || s.predict) {
			if t += clock.Exp() / s.chain.total; t > target {
				break
			}
			u := s.chain.candidate(&clock, &act, s.rates.table.Values())
			if u < 0 {
				continue // thinned: time passes, nobody acts
			}
			times[k], clocks[k], picks[k], draws[k] = t, clock, act, graph.ActDraw{U: u}
			if s.predict {
				draws[k].X, draws[k].Y = act.Uint64(), act.Uint64()
			}
			posts[k] = act
			k++
		}
		if s.predict {
			s.sink ^= s.g.TouchActs(draws[:k], s.walk)
		}
		// Run each planned activation and check its act against the plan.
		for i, d := range draws[:k] {
			if s.res.Events >= s.maxEvents {
				s.finished = true
				s.res.BudgetExhausted = true
				s.flushPartial()
				return false
			}
			s.now = times[i]
			s.res.Events++
			s.eventsInRound++
			if s.hook != nil {
				s.hook(d.U, s.now)
			}
			*s.act = picks[i]
			prevEdges := s.res.NewEdges
			s.p.Act(s.g, d.U, s.act, s.propose)
			if s.res.NewEdges > prevEdges && s.done(s.g) {
				s.res.Converged = true
				s.finished = true
				s.flushPartial()
				return false
			}
			if *s.act != posts[i] {
				// The act drew other than predicted (an isolated node, a
				// rejected draw, another process): rewind the clock to its
				// candidate and replan from the act stream as it is.
				*s.clock, t = clocks[i], times[i]
				continue replan
			}
		}
		*s.clock, *s.act = clock, act
		if t > target {
			break // the plan ended at the boundary
		}
	}
	s.now = target
	s.rounds++
	s.emitRound(s.rounds)
	if s.res.Events >= s.maxEvents {
		// The budget ran out exactly at the boundary: the round above is a
		// complete one, but the session cannot continue.
		s.finished = true
		s.res.BudgetExhausted = true
		return false
	}
	return true
}

// Step advances to the next parallel-round boundary — executing every
// activation with time ≤ the boundary, possibly none — and returns the
// round's delta plus whether the session can continue. Rounds with no
// activations still advance time and emit an (empty) delta: ages grow in
// silence. The final partial round at termination is returned with
// ok == false; a Step after that returns (nil, false). The delta and its
// slices are reused across rounds — copy anything retained.
func (s *Session) Step() (d *sim.RoundDelta, ok bool) {
	if s.acc == nil {
		s.acc = stream.NewDeltaAccumulator(s.n)
	}
	before := s.emits
	ok = s.step()
	if s.emits == before {
		return nil, false
	}
	return &s.acc.D, ok
}

// Run drives the session to the Done predicate, a stall, or the event
// budget, and returns the cumulative statistics.
func (s *Session) Run() Result {
	for s.step() {
	}
	return s.Stats()
}

// RunUntil steps (whole parallel rounds) until pred(g) holds, Done fires, or
// the budget is exhausted. Like sim.Session.RunUntil, pred is a breakpoint,
// not a terminal state.
func (s *Session) RunUntil(pred func(g *graph.Undirected) bool) Result {
	for !pred(s.g) && s.step() {
	}
	return s.Stats()
}

// Round returns the number of completed parallel-round boundaries. O(1).
func (s *Session) Round() int { return s.rounds }

// Time returns the current simulated time. O(1).
func (s *Session) Time() float64 { return s.now }

// Events returns the number of activations executed. O(1).
func (s *Session) Events() int { return s.res.Events }

// EdgesRemaining returns the number of node pairs still missing. O(1).
func (s *Session) EdgesRemaining() int { return s.g.MissingEdges() }

// Stats returns a snapshot of the cumulative run statistics. O(1).
func (s *Session) Stats() Result {
	res := s.res
	res.Time = s.now
	res.ParallelRounds = s.now
	return res
}

// Converged reports whether the Done predicate has fired.
func (s *Session) Converged() bool { return s.res.Converged }

// Graph exposes the session's live graph (read-only use between steps).
func (s *Session) Graph() *graph.Undirected { return s.g }

// Rates exposes the session's rate map. Read freely; mutate only through
// SetNodeRate / SetClassRate so the sampler follows.
func (s *Session) Rates() *RateMap { return s.rates }

// SetNodeRate retunes node u's activation rate between steps (a per-node
// override, detaching u from any class) and moves u to its new rate group
// in O(1): the chain holds no per-node pending event, so the next candidate
// already samples the new rates. Rate 0 parks the node. A session that
// stalled because every rate hit zero is reopened by giving any node a
// positive rate again.
func (s *Session) SetNodeRate(u int, rate float64) {
	s.rates.SetNodeRate(u, rate)
	s.refile(u)
	s.bus.EmitRateChange(u, "", rate, s.now)
}

// SetClassRate retunes a whole named class between steps, moving every
// member to its new rate group (see SetNodeRate). O(n).
func (s *Session) SetClassRate(name string, rate float64) {
	s.refile(s.rates.SetClassRate(name, rate)...)
	// One event for the whole class (Node == -1), not one per member.
	s.bus.EmitRateChange(-1, name, rate, s.now)
}

// refile moves the given nodes to the groups of their current rates.
func (s *Session) refile(nodes ...int) {
	if s.chain == nil {
		return // start() files from the map's then-current rates
	}
	for _, u := range nodes {
		s.chain.file(u, s.rates.Rate(u))
	}
	s.chain.retotal()
	if s.finished && s.res.Stalled && s.chain.total > 0 {
		s.finished = false
		s.res.Stalled = false
	}
}

// Run executes p under the event-driven scheduler until convergence, a
// stall, or budget exhaustion. It is a thin wrapper over a Session driven
// to completion; as with sim.RunAsync, the facade folds a negative
// MaxEvents back to the default budget (a fire-and-forget unbounded run of
// a non-converging workload could never return).
func Run(g *graph.Undirected, p core.Process, r *rng.Rand, cfg Config) Result {
	if cfg.MaxEvents < 0 {
		cfg.MaxEvents = 0
	}
	return New(g, p, r, cfg).Run()
}
