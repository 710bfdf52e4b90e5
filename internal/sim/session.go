package sim

import (
	"fmt"
	"math"

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
// round, for every engine family (Workers == 0, Workers >= 1, CommitEager).
//
// # Lifecycle
//
// A Session moves through three states:
//
//	ready    — constructed; no generator output consumed yet
//	running  — at least one round executed; the sharded engine (if any) is
//	           live with its worker goroutines parked between steps
//	finished — the Done predicate fired, or the round budget was exhausted
//
// The engine is created lazily on the first step, so a session whose graph
// already satisfies Done consumes no generator output at all — exactly as
// the facade behaved. Close releases the parked worker goroutines; it is
// idempotent, and sessions constructed with Workers <= 1 need it only for
// symmetry. Between steps the session — including its graph — may be
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
	g *graph.Undirected
	p core.Process
	r *rng.Rand

	mode      CommitMode
	workers   int
	maxRounds int
	done      func(*graph.Undirected) bool
	observer  func(round int, g *graph.Undirected)

	started  bool
	finished bool
	closed   bool

	res Result

	// Dense-phase state. denseThreshold < 0 means the mode is disarmed;
	// otherwise, once the graph's missing-pair count drops to the
	// threshold, dense flips true and the act phase samples proposals from
	// the complement graph instead of scanning all nodes (see
	// Config.DensePhase). The flag is written only on the committing
	// goroutine between rounds; workers observe it through the round
	// fan-out's channel synchronization. densePrefix is the sequential
	// engine's reusable prefix-sum scratch (never touched by shard calls,
	// which run concurrently and scan their <= shardNodes range linearly).
	denseThreshold int
	dense          bool
	densePrefix    []int

	// Engine state. eng is non-nil only for sharded sessions (synchronous
	// mode with Workers >= 1); engAct is the hoisted per-round shard action.
	eng    *engine
	engAct func(s *shard)

	// ranged is the process's block form, set by dispatch when a synchronous
	// session's process has one (see rangeActor); nil means every act goes
	// node by node through p.Act.
	ranged rangeActor

	// Sequential state: the hoisted propose closure and the reused round
	// buffers (buf holds synchronous proposals, accepted the round's delta).
	propose  func(a, b int)
	buf      []graph.Edge
	accepted []graph.Edge

	// Observation bus and delta state. Every round publishes through bus
	// (a cheap no-op while nothing is subscribed); the legacy
	// Config.DeltaObserver is subscribed at construction as the first
	// subscriber, so its callbacks keep their historical position in the
	// round sequence. ds is allocated at construction when the bus starts
	// active, lazily by the first Step call (Step always returns a filled
	// delta), or by Subscribe.
	bus stream.Bus
	ds  *deltaState

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
// engine family, drawing every random choice from r (or, for Workers >= 1
// and WorkersAuto, from r's sequential splits). Nothing is consumed from r
// until the first step. cfg.MaxRounds keeps its Run semantics (0 selects
// the default budget) with one session-only extension: any negative
// MaxRounds means unbounded, for open-ended stepping under churn.
//
// Junk configuration fails fast here rather than misbehaving downstream: a
// negative Workers other than WorkersAuto and a DensePhase outside [0, 1]
// panic with a clear message (TestNewSessionRejectsJunkConfig).
func NewSession(g *graph.Undirected, p core.Process, r *rng.Rand, cfg Config) *Session {
	validateWorkers(cfg.Workers, "Config.Workers")
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds(g.N())
	} else if maxRounds < 0 {
		maxRounds = math.MaxInt
	}
	done := cfg.Done
	if done == nil {
		done = (*graph.Undirected).IsComplete
	}
	if cfg.DensePhase < 0 || cfg.DensePhase > 1 {
		panic(fmt.Sprintf("sim: DensePhase %v outside [0, 1]", cfg.DensePhase))
	}
	denseThreshold := -1
	if cfg.DensePhase > 0 && cfg.Mode == CommitSynchronous {
		denseThreshold = int(cfg.DensePhase * float64(g.N()*(g.N()-1)/2))
	}
	s := &Session{
		g:              g,
		p:              p,
		r:              r,
		mode:           cfg.Mode,
		workers:        cfg.Workers,
		maxRounds:      maxRounds,
		done:           done,
		observer:       cfg.Observer,
		denseThreshold: denseThreshold,
	}
	if cfg.DeltaObserver != nil {
		// The legacy observer rides the bus as its first subscriber, so it
		// sees every round exactly as before and anything Subscribe attaches
		// later fires after it.
		s.Subscribe(stream.RoundObserver(cfg.DeltaObserver))
	}
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
	if s.ds == nil {
		s.ds = newDeltaState(s.g.N(), &s.bus)
	}
}

// dispatch performs the engine-family setup. It runs lazily, at the first
// step that actually executes a round, so a session that is done at entry
// (or never stepped) consumes no generator output — preserving the
// facade's semantics. A session resumed by a membership mutation after
// finishing at entry dispatches here too.
func (s *Session) dispatch() {
	if s.mode == CommitSynchronous {
		s.ranged, _ = s.p.(rangeActor)
	}
	if s.mode == CommitSynchronous && (s.workers >= 1 || s.workers == WorkersAuto) {
		s.eng = newEngine(s.g.N(), s.workers, s.r)
		s.engAct = func(sh *shard) {
			switch {
			case s.dense:
				s.denseAct(sh.lo, sh.hi, sh.r, sh.proposeEdge)
			case s.ranged != nil:
				sh.edges = s.ranged.ActRange(s.g, sh.lo, sh.hi, sh.r, sh.edges)
			default:
				for u := sh.lo; u < sh.hi; u++ {
					s.p.Act(s.g, u, sh.r, sh.proposeEdge)
				}
			}
		}
		return
	}
	switch s.mode {
	case CommitSynchronous:
		s.propose = func(a, b int) {
			s.res.Proposals++
			s.buf = append(s.buf, graph.Edge{U: a, V: b})
		}
	case CommitEager:
		s.propose = func(a, b int) {
			s.res.Proposals++
			if s.g.AddEdge(a, b) {
				s.res.NewEdges++
				if s.ds != nil || s.alive != nil {
					s.accepted = append(s.accepted, graph.Edge{U: a, V: b}.Norm())
				}
			} else {
				s.res.DuplicateProposals++
			}
		}
	default:
		panic(fmt.Sprintf("sim: unknown commit mode %d", s.mode))
	}
}

// step executes one committed round and reports whether the session can
// continue. It is the single round body shared by Step, Run, and RunUntil.
func (s *Session) step() bool {
	if s.finished || s.closed {
		return false
	}
	if !s.started {
		// Done-at-entry check, before any generator output is consumed.
		s.started = true
		if s.done(s.g) {
			s.res.Converged = true
			s.finished = true
			return false
		}
	}
	if s.res.Rounds >= s.maxRounds {
		s.finished = true
		return false
	}
	if s.eng == nil && s.propose == nil {
		s.dispatch()
	}
	if s.denseThreshold >= 0 && !s.dense && s.g.MissingEdges() <= s.denseThreshold {
		// Crossing the density threshold is one-way: the graph only grows,
		// so the missing-pair count never climbs back above it.
		s.dense = true
	}
	round := s.res.Rounds + 1
	s.buf, s.accepted = s.buf[:0], s.accepted[:0]
	actWorkers := 0

	if s.eng != nil {
		// Sharded act phase, then commit the shard buffers in shard order
		// through the grouped path — state-identical to per-edge commits,
		// and the accepted list doubles as the round's delta.
		s.eng.actRound(s.engAct)
		roundProposals := 0
		acc := s.accepted
		for i := range s.eng.shards {
			sh := &s.eng.shards[i]
			roundProposals += len(sh.edges)
			acc = s.g.AddEdgesGrouped(sh.edges, acc)
			sh.edges = sh.edges[:0]
		}
		s.accepted = acc
		s.res.Proposals += roundProposals
		s.res.NewEdges += len(acc)
		s.res.DuplicateProposals += roundProposals - len(acc)
		// Snapshot the count that served this round for the delta's
		// telemetry before tune moves it for the next one.
		actWorkers = s.eng.active
		s.eng.tune(roundProposals, len(acc))
	} else {
		n := s.g.N()
		switch {
		case s.dense:
			s.denseAct(0, n, s.r, s.propose)
		case s.ranged != nil:
			// buf was emptied above, so its length is the round's proposals.
			s.buf = s.ranged.ActRange(s.g, 0, n, s.r, s.buf)
			s.res.Proposals += len(s.buf)
		default:
			for u := 0; u < n; u++ {
				s.p.Act(s.g, u, s.r, s.propose)
			}
		}
		if s.mode == CommitSynchronous {
			s.accepted = s.g.AddEdgesGrouped(s.buf, s.accepted)
			s.res.NewEdges += len(s.accepted)
			s.res.DuplicateProposals += len(s.buf) - len(s.accepted)
		}
	}
	s.res.Rounds = round

	if s.alive != nil {
		for _, e := range s.accepted {
			if s.alive[e.U] && s.alive[e.V] {
				s.memberEdges++
			}
		}
	}
	if s.ds != nil {
		// Edges injected between steps (AddEdge) lead the round's delta so
		// the stream accounts for every insertion the graph saw.
		acc := s.accepted
		if len(s.injected) > 0 {
			s.combined = append(append(s.combined[:0], s.injected...), s.accepted...)
			acc = s.combined
		}
		s.ds.fill(round, s.g, acc)
		d := s.ds.d()
		d.ActiveWorkers = actWorkers
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
		s.ds.notify(s.g)
	}
	s.joined, s.left = s.joined[:0], s.left[:0]
	s.injected = s.injected[:0]
	if s.observer != nil {
		s.observer(round, s.g)
	}
	if s.done(s.g) {
		s.res.Converged = true
		s.finished = true
		return false
	}
	if s.res.Rounds >= s.maxRounds {
		s.finished = true
		return false
	}
	return true
}

// rangeActor is the block form of a synchronous act: the process performs
// Act for every node of [lo, hi) in increasing order on the one stream r and
// appends what those Acts would have proposed, in order, to edges. The
// contract is bit-identity with the per-node loop — same proposals, same
// final state of r — so taking it changes no result; it exists because a
// process that sees the whole range can overlap its nodes' memory reads
// (core.Push.ActRange) or make a block's draws in one call
// (core.Pull.ActRange). The session asks for it once, in dispatch, on the
// process exactly as configured: a wrapper (core.Population, core.Crashed,
// core.Wrap with a behavior chain) does not have it and acts node by node,
// as do eager commits, the dense phase, AsyncSession and eventsim.
// core.Wrap(p) with an empty chain returns p itself, so it takes the block
// path when p does.
type rangeActor interface {
	ActRange(g *graph.Undirected, lo, hi int, r *rng.Rand, edges []graph.Edge) []graph.Edge
}

// rangeActors lists the core types that take the block path, so that adding
// one is a decision made here. A type that embeds one of these would inherit
// its ActRange past its own Act; TestRangeActorsListed fails on any core
// process that has the method and is not on this list.
var rangeActors = []rangeActor{core.Push{}, core.Pull{}}

// denseAct is the dense-phase act body for the node range [lo, hi): the
// whole range under the sequential engine, one shard under the sharded one
// (each shard draws from its own stream, which is what keeps dense rounds
// bit-identical for every Workers >= 1). Instead of letting every node
// gossip — near convergence almost every such proposal is a duplicate — it
// samples up to hi-lo proposals from the range's complement incidences:
// a draw picks t uniform in [0, Σ MissingDegree(u)), which lands on node u
// with probability proportional to u's missing work and on u's t'-th
// missing partner w uniformly within it, and proposes exactly the missing
// edge {u, w}. Every draw reads only the committed graph, so the act phase
// stays read-only and scheduling-independent. Ranges (and whole rounds)
// with no missing work consume no generator output. When membership
// tracking is active, draws landing on a pair with a departed endpoint are
// discarded — departed nodes neither gossip nor accept connections.
func (s *Session) denseAct(lo, hi int, r *rng.Rand, propose func(a, b int)) {
	// Locating a draw's node: shard calls cover at most shardNodes nodes
	// and scan their missing degrees linearly; the sequential engine's
	// whole-graph call builds prefix sums once per round and binary-
	// searches each draw, keeping the round O(n + budget·(log n + n/64))
	// instead of O(n·budget). Both map t to the identical (u, t') pair —
	// the graph is read-only during the act — so the two lookups share
	// one deterministic trajectory.
	width := hi - lo
	var prefix []int
	tot := 0
	if width > shardNodes {
		if cap(s.densePrefix) < width+1 {
			s.densePrefix = make([]int, width+1)
		}
		prefix = s.densePrefix[:width+1]
		prefix[0] = 0
		for i := 0; i < width; i++ {
			tot += s.g.MissingDegree(lo + i)
			prefix[i+1] = tot
		}
	} else {
		for u := lo; u < hi; u++ {
			tot += s.g.MissingDegree(u)
		}
	}
	if tot == 0 {
		return
	}
	budget := width
	if tot < budget {
		budget = tot
	}
	for p := 0; p < budget; p++ {
		t := r.Intn(tot)
		var u int
		if prefix != nil {
			i := prefixOwner(prefix, t)
			u = lo + i
			t -= prefix[i]
		} else {
			u = lo
			for {
				md := s.g.MissingDegree(u)
				if t < md {
					break
				}
				t -= md
				u++
			}
		}
		w := s.g.MissingNeighbor(u, t)
		if s.alive != nil && (!s.alive[u] || !s.alive[w]) {
			continue
		}
		propose(u, w)
	}
}

// prefixOwner returns the first i with prefix[i+1] > t: the node (offset)
// whose slice of the prefix sums a dense-phase draw t lands in — the one
// lookup both sessions' denseAct share. A plain loop, no closure; on go1.24
// it times the same as the sort.Search it replaced (64 vs 65 ns at width
// 2048), the probes' mispredicted branches being the cost either way.
func prefixOwner(prefix []int, t int) int {
	lo, hi := 0, len(prefix)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if prefix[mid+1] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// InDensePhase reports whether the session has crossed its DensePhase
// threshold and is sampling proposals from the complement graph. Always
// false when the mode is disarmed.
func (s *Session) InDensePhase() bool { return s.dense }

// Step executes one committed round and returns its delta plus whether the
// session can continue (false once Done fired or the budget is exhausted).
// The final converging round is returned with ok == false; a Step after
// that returns (nil, false). The delta and its slices are owned by the
// session and reused across rounds — copy anything retained. Steady-state
// steps allocate nothing once the buffers are warm.
func (s *Session) Step() (d *RoundDelta, ok bool) {
	if s.ds == nil {
		s.ds = newDeltaState(s.g.N(), &s.bus)
	}
	before := s.res.Rounds
	ok = s.step()
	if s.res.Rounds == before {
		return nil, false
	}
	return s.ds.d(), ok
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

// Round returns the number of committed rounds so far. O(1).
func (s *Session) Round() int { return s.res.Rounds }

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

// Stats returns a snapshot of the cumulative run statistics. O(1). Result
// is bit-identical across worker schedules by contract; the schedule
// itself — effective worker count, autoscaling decisions — is read through
// EngineStats.
func (s *Session) Stats() Result { return s.res }

// EngineStats returns the session's schedule telemetry: the configured and
// effective worker counts (newEngine clamps fixed requests onto
// [1, shards]), the shard count, and — for WorkersAuto sessions — the
// autoscaler's current active count and grow/shrink decision counts. O(1).
// Before the first step the values describe the schedule the engine will
// start with.
func (s *Session) EngineStats() EngineStats {
	if s.mode != CommitSynchronous || s.workers == 0 {
		return EngineStats{ConfiguredWorkers: s.workers}
	}
	if s.eng != nil {
		return s.eng.stats(s.workers)
	}
	return prospectiveEngineStats(s.workers, s.g.N())
}

// Converged reports whether the Done predicate has fired.
func (s *Session) Converged() bool { return s.res.Converged }

// Graph exposes the session's live graph. Read freely between steps;
// mutate it only through the session's mutation methods so the membership
// accounting stays consistent.
func (s *Session) Graph() *graph.Undirected { return s.g }

// Close releases the parked worker goroutines of a sharded session. It is
// idempotent; the session must not be stepped afterwards. Sessions with
// Workers <= 1 hold no goroutines, but calling Close is always safe.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.eng != nil {
		s.eng.stop()
	}
}

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

// InsertNode admits node u as a member between steps (a join). Any edges u
// already has toward members immediately count toward coverage. It panics
// if membership tracking is off or u is already a member.
func (s *Session) InsertNode(u int) {
	if s.alive == nil {
		panic("sim: InsertNode without TrackMembership")
	}
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
// membership tracking is off or u is not a member.
func (s *Session) RemoveNode(u int) {
	if s.alive == nil {
		panic("sim: RemoveNode without TrackMembership")
	}
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
