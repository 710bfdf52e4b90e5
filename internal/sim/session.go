package sim

import (
	"fmt"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// This file implements the resumable session API — the steppable surface
// over the undirected round engines. A Session is constructed once from
// (graph, process, generator, config) and then *driven*: Step executes one
// committed round and hands back its delta, Run drives to the Done
// predicate, RunUntil drives to an external breakpoint, and the O(1)
// accessors (Round, EdgesRemaining, Stats) read progress without touching
// the graph. The fire-and-forget Run facade in runner.go is a thin wrapper
// over a Session, so the two are bit-identical by construction: a Session
// consumes exactly the generator stream the facade consumed, round for
// round, for every engine family (synchronous, dense phase, CommitEager).
//
// The lifecycle, the commit-mode setup and the round body are the round
// core's (round.go), shared with DirectedSession; what is here is what is
// really undirected: the completeness target, membership, AddEdge
// injection and coverage. Between steps the session — including its graph — may be
// mutated; see the membership section below.
//
// # Membership and between-step mutation
//
// Long-running deployments (the paper's Section 6 churn model) never
// converge; they are driven forever while the membership the processes
// chase keeps moving. TrackMembership hands the session a liveness mask
// (shared with liveness-aware processes such as core.Crashed), after which
// InsertNode / RemoveNode / AddEdge mutate the membership between steps and
// the session maintains the member-pair coverage — the steady-state metric
// — *incrementally*: a join/leave adjusts the alive-edge count by the
// node's alive degree (O(deg)), and every committed round adds its
// alive-alive accepted edges (O(new edges)). Coverage is therefore O(1) per
// call instead of the O(members²) pair scan it replaces. Membership events
// are also surfaced on the next round's RoundDelta (Joined / Left /
// Members / MemberEdges), so delta consumers see joins and leaves in
// stream order.
type Session struct {
	round[*graph.Undirected, graph.Edge]
	done func(*graph.Undirected) bool

	// Observation bus and delta accumulator. Every round publishes through
	// bus (a cheap no-op while nothing is subscribed). acc is allocated by
	// the first Subscribe or Step call (Step always returns a filled delta);
	// while it is nil no delta is filled.
	bus stream.Bus
	acc *stream.DeltaAccumulator

	// Membership state (nil alive ⇒ membership tracking disabled).
	alive        []bool
	members      int
	memberEdges  int
	joined, left []int32 // events since the last emitted delta

	// Edges injected between steps via AddEdge since the last emitted
	// delta; they are prepended to the next round's delta so incremental
	// consumers (metrics.Trajectory and friends) never drift from the
	// graph. combined is the reused prepend scratch.
	injected []graph.Edge
	combined []graph.Edge
}

// NewSession constructs a resumable session over g. The session owns the
// run exactly as Run does: p acts on g under cfg's commit semantics and
// engine family, drawing every random choice from r. Nothing is consumed
// from r until the first step. cfg.MaxRounds keeps its Run semantics (0 selects
// the default budget) with one session-only extension: any negative
// MaxRounds means unbounded, for open-ended stepping under churn.
//
// Junk configuration fails fast here rather than misbehaving downstream: a
// negative Workers, an unknown Mode and a DensePhase outside [0, 1] panic
// with a clear message (see round.setup).
func NewSession(g *graph.Undirected, p core.Process, r *rng.Rand, cfg Config) *Session {
	validateWorkers(cfg.Workers, "Config.Workers")
	n := g.N()
	s := &Session{done: cfg.Done}
	if s.done == nil {
		s.done = (*graph.Undirected).IsComplete
	}
	s.round = round[*graph.Undirected, graph.Edge]{
		g: g, n: n, p: p, r: r, sub: s,
		mode: cfg.Mode, maxRounds: cfg.MaxRounds,
	}
	s.setup(DefaultMaxRounds(n), cfg.DensePhase, n*(n-1)/2)
	return s
}

// Subscribe attaches sub to the session's observation bus. Subscribers
// receive, in subscription order on the stepping goroutine, a KindRound
// event after every committed round plus KindJoin / KindLeave events for
// membership mutations applied between steps. Attaching subscribers does
// not perturb the run: Result and the delta stream are bit-identical for
// any subscriber count (TestBusEquivalence*). Events and their payloads are
// reused across rounds — copy anything retained.
func (s *Session) Subscribe(sub stream.Subscriber) {
	s.bus.Subscribe(sub)
	if s.acc == nil {
		s.acc = stream.NewDeltaAccumulator(s.n)
	}
}

// The substrate of an undirected round: done is the Done predicate (graph
// complete by default), the dense phase samples the complement graph, and
// commits go through AddEdge / AddEdgesGrouped.

func (s *Session) converged() bool         { return s.done(s.g) }
func (s *Session) missing() int            { return s.g.MissingEdges() }
func (s *Session) missingDegree(u int) int { return s.g.MissingDegree(u) }

// missingPick discards, when membership tracking is active, a draw landing
// on a pair with a departed endpoint — departed nodes neither gossip nor
// accept connections.
func (s *Session) missingPick(u, t int) (int, bool) {
	w := s.g.MissingNeighbor(u, t)
	return w, s.alive == nil || s.alive[u] && s.alive[w]
}

func (s *Session) commit(props []graph.Edge) []graph.Edge {
	return s.g.AddEdgesGrouped(props, props[:0])
}

func (s *Session) commitEager(a, b int) bool {
	if !s.g.AddEdge(a, b) {
		return false
	}
	if s.observed() {
		s.buf = append(s.buf, graph.Edge{U: a, V: b}.Norm())
	}
	return true
}

// observed: publish reads the accepted edges for the delta and for the
// member-edge count.
func (s *Session) observed() bool { return s.acc != nil || s.alive != nil }

// publish settles the member-edge count over the round's accepted edges,
// then fills and publishes the delta.
func (s *Session) publish(round int, accepted []graph.Edge) {
	if s.alive != nil {
		for _, e := range accepted {
			if s.alive[e.U] && s.alive[e.V] {
				s.memberEdges++
			}
		}
	}
	if s.acc != nil {
		// Edges injected between steps (AddEdge) lead the round's delta so
		// the stream accounts for every insertion the graph saw.
		if len(s.injected) > 0 {
			s.combined = append(append(s.combined[:0], s.injected...), accepted...)
			accepted = s.combined
		}
		s.acc.Fill(round, s.g, accepted)
		d := &s.acc.D
		d.Joined = append(d.Joined[:0], s.joined...)
		d.Left = append(d.Left[:0], s.left...)
		d.Members = s.members
		d.MemberEdges = s.memberEdges
		if s.alive != nil {
			// Membership-aware remaining count: pairs involving departed
			// nodes are not outstanding work, so churn consumers must not
			// see them as "remaining" (they used to — see MemberEdgesRemaining).
			d.EdgesRemaining = s.memberPairsMissing()
		}
		s.bus.EmitRound(s.g, d, float64(round))
	}
	s.joined, s.left = s.joined[:0], s.left[:0]
	s.injected = s.injected[:0]
}

// Step executes one committed round and returns its delta plus whether the
// session can continue (false once Done fired or the budget is exhausted).
// The final converging round is returned with ok == false; a Step after
// that returns (nil, false). The delta and its slices are owned by the
// session and reused across rounds — copy anything retained. Steady-state
// steps allocate nothing once the buffers are warm.
func (s *Session) Step() (d *RoundDelta, ok bool) {
	if s.acc == nil {
		s.acc = stream.NewDeltaAccumulator(s.n)
	}
	before := s.res.Rounds
	ok = s.step()
	if s.res.Rounds == before {
		return nil, false
	}
	return &s.acc.D, ok
}

// Run drives the session to the Done predicate or the round budget and
// returns the cumulative statistics. It may be freely interleaved with
// Step and RunUntil: the three consume the same underlying round sequence.
func (s *Session) Run() Result {
	for s.step() {
	}
	return s.res
}

// RunUntil steps until pred(g) holds (checked before every round, so a
// session whose graph already satisfies pred executes nothing), Done fires,
// or the budget is exhausted, and returns the statistics so far. Unlike
// Done, pred is a breakpoint, not a terminal state: the session can keep
// being stepped afterwards.
func (s *Session) RunUntil(pred func(g *graph.Undirected) bool) Result {
	for !pred(s.g) && s.step() {
	}
	return s.res
}

// EdgesRemaining returns the number of node pairs still missing, in O(1).
// When membership tracking is active it counts only pairs of current
// members — pairs involving departed nodes are not outstanding work and
// are excluded (they used to be included, which made churn consumers chase
// pairs no process could ever close). Without membership tracking it is
// the plain complement count over all n nodes.
func (s *Session) EdgesRemaining() int {
	if s.alive != nil {
		return s.memberPairsMissing()
	}
	return s.g.MissingEdges()
}

// MemberEdgesRemaining returns the number of unordered current-member
// pairs not yet adjacent — the membership-aware "work remaining" count —
// in O(1) from the incrementally maintained member counters. It panics if
// membership tracking is off.
func (s *Session) MemberEdgesRemaining() int {
	if s.alive == nil {
		panic("sim: MemberEdgesRemaining without TrackMembership")
	}
	return s.memberPairsMissing()
}

// memberPairsMissing is the membership-aware complement count:
// C(members, 2) minus the alive-alive edge count.
func (s *Session) memberPairsMissing() int {
	return s.members*(s.members-1)/2 - s.memberEdges
}

// MissingDegree returns the number of nodes u is not yet adjacent to,
// excluding u itself. O(1); see graph.Undirected.MissingDegree.
func (s *Session) MissingDegree(u int) int { return s.g.MissingDegree(u) }

// Stats returns a snapshot of the cumulative run statistics. O(1).
func (s *Session) Stats() Result { return s.res }

// TrackMembership enables membership tracking over the given liveness mask
// (len(alive) must equal the node count). The session adopts the mask —
// share the same slice with liveness-aware processes such as core.Crashed —
// and initializes the member and alive-edge counts with one scan; from then
// on both are maintained incrementally. Call before the mutation methods.
func (s *Session) TrackMembership(alive []bool) {
	if len(alive) != s.g.N() {
		panic(fmt.Sprintf("sim: alive mask has %d slots for %d nodes", len(alive), s.g.N()))
	}
	s.alive = alive
	s.members = 0
	s.memberEdges = 0
	for u := range alive {
		if !alive[u] {
			continue
		}
		s.members++
		for i, d := 0, s.g.Degree(u); i < d; i++ {
			if v := s.g.Neighbor(u, i); v > u && alive[v] {
				s.memberEdges++
			}
		}
	}
}

// aliveDegree returns |N(u) ∩ alive|.
func (s *Session) aliveDegree(u int) int {
	cnt := 0
	for i, d := 0, s.g.Degree(u); i < d; i++ {
		if s.alive[s.g.Neighbor(u, i)] {
			cnt++
		}
	}
	return cnt
}

// checkNode panics unless membership is tracked and u is a slot of the mask.
func (s *Session) checkNode(op string, u int) {
	if s.alive == nil {
		panic("sim: " + op + " without TrackMembership")
	}
	if u < 0 || u >= len(s.alive) {
		panic(fmt.Sprintf("sim: %s(%d): outside [0, %d)", op, u, len(s.alive)))
	}
}

// InsertNode admits node u as a member between steps (a join). Any edges u
// already has toward members immediately count toward coverage. It panics
// if membership tracking is off, u is outside the mask or u is already a
// member.
func (s *Session) InsertNode(u int) {
	s.checkNode("InsertNode", u)
	if s.alive[u] {
		panic(fmt.Sprintf("sim: InsertNode(%d): already a member", u))
	}
	s.alive[u] = true
	s.members++
	s.memberEdges += s.aliveDegree(u)
	s.joined = append(s.joined, int32(u))
	s.bus.EmitMembership(stream.KindJoin, s.g, u, float64(s.res.Rounds))
	s.unfinish()
}

// RemoveNode removes member u between steps (a fail-stop leave: its edges
// remain as stale entries in other members' contact lists). It panics if
// membership tracking is off, u is outside the mask or u is not a member.
func (s *Session) RemoveNode(u int) {
	s.checkNode("RemoveNode", u)
	if !s.alive[u] {
		panic(fmt.Sprintf("sim: RemoveNode(%d): not a member", u))
	}
	s.alive[u] = false
	s.members--
	s.memberEdges -= s.aliveDegree(u)
	s.left = append(s.left, int32(u))
	s.bus.EmitMembership(stream.KindLeave, s.g, u, float64(s.res.Rounds))
	s.unfinish()
}

// unfinish reopens a finished session after a membership mutation: the
// mutation may have invalidated the converged state, so both the finished
// flag and the Converged claim are cleared — the next committed round
// re-evaluates Done and restores Converged if it still holds.
func (s *Session) unfinish() {
	s.finished = false
	s.res.Converged = false
}

// AddEdge inserts the edge {u, v} between steps (e.g. wiring a joiner to
// its bootstrap contacts) and reports whether it was new, keeping the
// coverage accounting consistent. It does not count as a process proposal,
// but the inserted edge is carried at the head of the next round's delta
// (NewEdges / Touched / DegreeInc) so incremental delta consumers stay in
// sync with the graph.
func (s *Session) AddEdge(u, v int) bool {
	if !s.g.AddEdge(u, v) {
		return false
	}
	if s.alive != nil && s.alive[u] && s.alive[v] {
		s.memberEdges++
	}
	s.injected = append(s.injected, graph.Edge{U: u, V: v}.Norm())
	return true
}

// MemberCount returns the current number of members. O(1).
func (s *Session) MemberCount() int { return s.members }

// MemberEdges returns the number of edges joining two members. O(1).
func (s *Session) MemberEdges() int { return s.memberEdges }

// Coverage returns the fraction of unordered member pairs that are
// adjacent (1 for fewer than two members) — the paper's steady-state
// churn metric — in O(1), from the incrementally maintained counts.
func (s *Session) Coverage() float64 {
	if s.members < 2 {
		return 1
	}
	return float64(s.memberEdges) / float64(s.members*(s.members-1)/2)
}
