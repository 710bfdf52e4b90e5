package sim

import (
	"fmt"
	"math"

	"gossipdisc/internal/bitset"
	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// DirectedSession is the directed counterpart of Session: a resumable run
// of a directed process toward the transitive closure of the initial
// graph. Construction computes the closure target once (Section 5's
// invariant: the two-hop walk can never escape it), after which
// ClosureArcsRemaining is an O(1) progress read at every step. The
// RunDirected facade is a thin wrapper over a DirectedSession, so stepped
// and fire-and-forget runs are bit-identical for every engine family.
type DirectedSession struct {
	g *graph.Directed
	p core.DirectedProcess
	r *rng.Rand

	mode      CommitMode
	workers   int
	maxRounds int
	done      func(*graph.Directed) bool // nil ⇒ closure reached
	observer  func(round int, g *graph.Directed)

	started  bool
	finished bool
	closed   bool

	res DirectedResult

	// Closure target of the *initial* graph and the count of its arcs
	// still missing — the engine's own O(1) termination/progress counter.
	// missingRow[u] is the per-node share (arcs of target[u] not yet in
	// u's out-row); both are maintained by the commit paths, and the dense
	// phase samples from missingRow.
	target     []*bitset.Set
	missing    int
	missingRow []int32

	// Dense-phase state, mirroring Session: armed when denseThreshold >= 0,
	// active once the missing-closure count drops to the threshold.
	// densePrefix is the sequential engine's prefix-sum scratch (shard
	// calls scan their <= shardNodes range linearly instead).
	denseThreshold int
	dense          bool
	densePrefix    []int

	eng    *engine
	engAct func(s *shard)

	// ranged is the process's block form, set by dispatch when a synchronous
	// session's process has one (see directedRangeActor); nil means every act
	// goes node by node through p.Act.
	ranged directedRangeActor

	propose  func(a, b int)
	buf      []graph.Arc
	accepted []graph.Arc

	// Observation bus and delta state, mirroring Session: the legacy
	// DirectedConfig.DeltaObserver is subscribed first at construction;
	// Subscribe attaches further consumers.
	bus stream.Bus
	ds  *directedDeltaState
}

// NewDirectedSession constructs a resumable directed session over g. The
// transitive closure of g is computed here (no generator output is
// consumed); the first step performs the engine-family dispatch. As with
// Session, any negative cfg.MaxRounds means unbounded stepping, and junk
// configuration (a negative Workers other than WorkersAuto, DensePhase
// outside [0, 1]) panics here with a clear message.
func NewDirectedSession(g *graph.Directed, p core.DirectedProcess, r *rng.Rand, cfg DirectedConfig) *DirectedSession {
	validateWorkers(cfg.Workers, "DirectedConfig.Workers")
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultDirectedMaxRounds(g.N())
	} else if maxRounds < 0 {
		maxRounds = math.MaxInt
	}
	s := &DirectedSession{
		g:         g,
		p:         p,
		r:         r,
		mode:      cfg.Mode,
		workers:   cfg.Workers,
		maxRounds: maxRounds,
		done:      cfg.Done,
		observer:  cfg.Observer,
	}
	if cfg.DensePhase < 0 || cfg.DensePhase > 1 {
		panic(fmt.Sprintf("sim: DensePhase %v outside [0, 1]", cfg.DensePhase))
	}
	s.target = g.TransitiveClosure()
	s.missingRow = make([]int32, g.N())
	for u, row := range s.target {
		s.res.TargetArcs += row.Count()
		miss := g.RowDiffCount(u, row)
		s.missingRow[u] = int32(miss)
		s.missing += miss
	}
	s.denseThreshold = -1
	if cfg.DensePhase > 0 && cfg.Mode == CommitSynchronous {
		s.denseThreshold = int(cfg.DensePhase * float64(s.res.TargetArcs))
	}
	if cfg.DeltaObserver != nil {
		// The legacy observer rides the bus as its first subscriber, exactly
		// as Session treats Config.DeltaObserver.
		s.Subscribe(stream.DirectedRoundObserver(cfg.DeltaObserver))
	}
	return s
}

// Subscribe attaches sub to the session's observation bus: a
// KindDirectedRound event fires after every committed round, in
// subscription order on the stepping goroutine. Attaching subscribers does
// not perturb the run (TestBusEquivalenceDirected); payloads are reused
// across rounds — copy anything retained.
func (s *DirectedSession) Subscribe(sub stream.Subscriber) {
	s.bus.Subscribe(sub)
	s.ensureDeltaState()
}

// ensureDeltaState allocates the delta state and performs the one-time
// MissingClosureDegree bind.
func (s *DirectedSession) ensureDeltaState() {
	if s.ds == nil {
		s.ds = newDirectedDeltaState(s.g.N(), &s.bus)
		s.ds.d().MissingClosureDegree = s.MissingClosureDegree
	}
}

// converged evaluates the termination predicate: the Done override when
// set, otherwise "no closure arc is missing".
func (s *DirectedSession) converged() bool {
	if s.done != nil {
		return s.done(s.g)
	}
	return s.missing == 0
}

// commitArc inserts one arc eagerly, maintaining the missing-closure
// counter and the round's accepted list.
func (s *DirectedSession) commitArc(a, b int) {
	if s.g.AddArc(a, b) {
		s.res.NewArcs++
		if s.target[a].Test(b) {
			s.missing--
			s.missingRow[a]--
		}
		if s.ds != nil {
			s.accepted = append(s.accepted, graph.Arc{U: a, V: b})
		}
	} else {
		s.res.DuplicateProposals++
	}
}

// dispatch performs the engine-family setup, lazily at the first step that
// executes a round, so a session that is done at entry consumes no
// generator output.
func (s *DirectedSession) dispatch() {
	if s.mode == CommitSynchronous {
		s.ranged, _ = s.p.(directedRangeActor)
	}
	if s.mode == CommitSynchronous && (s.workers >= 1 || s.workers == WorkersAuto) {
		s.eng = newEngine(s.g.N(), s.workers, s.r)
		s.engAct = func(sh *shard) {
			switch {
			case s.dense:
				s.denseAct(sh.lo, sh.hi, sh.r, sh.proposeArc)
			case s.ranged != nil:
				sh.arcs = s.ranged.ActRange(s.g, sh.lo, sh.hi, sh.r, sh.arcs)
			default:
				for u := sh.lo; u < sh.hi; u++ {
					s.p.Act(s.g, u, sh.r, sh.proposeArc)
				}
			}
		}
		return
	}
	switch s.mode {
	case CommitSynchronous:
		s.propose = func(a, b int) {
			s.res.Proposals++
			s.buf = append(s.buf, graph.Arc{U: a, V: b})
		}
	case CommitEager:
		s.propose = func(a, b int) {
			s.res.Proposals++
			s.commitArc(a, b)
		}
	default:
		panic(fmt.Sprintf("sim: unknown commit mode %d", s.mode))
	}
}

// step executes one committed round and reports whether the session can
// continue.
func (s *DirectedSession) step() bool {
	if s.finished || s.closed {
		return false
	}
	if !s.started {
		// Done-at-entry check, before any generator output is consumed.
		s.started = true
		if s.converged() {
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
	if s.denseThreshold >= 0 && !s.dense && s.missing <= s.denseThreshold {
		// One-way switch: the missing-closure count is non-increasing.
		s.dense = true
	}
	round := s.res.Rounds + 1
	s.buf, s.accepted = s.buf[:0], s.accepted[:0]
	actWorkers := 0

	if s.eng != nil {
		s.eng.actRound(s.engAct)
		roundProposals := 0
		acc := s.accepted
		for i := range s.eng.shards {
			sh := &s.eng.shards[i]
			roundProposals += len(sh.arcs)
			acc = s.g.AddArcsGrouped(sh.arcs, acc)
			sh.arcs = sh.arcs[:0]
		}
		s.accepted = acc
		s.res.Proposals += roundProposals
		s.res.NewArcs += len(acc)
		s.res.DuplicateProposals += roundProposals - len(acc)
		for _, a := range acc {
			if s.target[a.U].Test(a.V) {
				s.missing--
				s.missingRow[a.U]--
			}
		}
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
			s.accepted = s.g.AddArcsGrouped(s.buf, s.accepted)
			s.res.NewArcs += len(s.accepted)
			s.res.DuplicateProposals += len(s.buf) - len(s.accepted)
			for _, a := range s.accepted {
				if s.target[a.U].Test(a.V) {
					s.missing--
					s.missingRow[a.U]--
				}
			}
		}
	}
	s.res.Rounds = round

	if s.ds != nil {
		s.ds.d().ActiveWorkers = actWorkers
		s.ds.emit(round, s.g, s.accepted, s.missing)
	}
	if s.observer != nil {
		s.observer(round, s.g)
	}
	if s.converged() {
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

// directedRangeActor is rangeActor for the directed substrate: Act for every
// node of [lo, hi) in increasing order on the one stream r, the proposed
// arcs appended in order — the same arcs and the same final r as the
// per-node loop, so taking it changes no result. As in Session, dispatch
// asks the process as configured, once, in synchronous mode only: a wrapper
// (core.DirectedPopulation, core.FaultyDirected, core.WrapDirected with a
// behavior chain) acts node by node, and WrapDirected(p) with an empty
// chain is p itself.
type directedRangeActor interface {
	ActRange(g *graph.Directed, lo, hi int, r *rng.Rand, arcs []graph.Arc) []graph.Arc
}

// directedRangeActors lists the core types that take the directed block
// path; TestDirectedRangeActorsListed fails on any directed core process
// that has the method and is not here (see rangeActors).
var directedRangeActors = []directedRangeActor{core.DirectedTwoHop{}}

// Step executes one committed round and returns its delta plus whether the
// session can continue. The final converging round is returned with
// ok == false; a Step after that returns (nil, false). The delta and its
// slices are reused across rounds — copy anything retained.
func (s *DirectedSession) Step() (d *DirectedRoundDelta, ok bool) {
	s.ensureDeltaState()
	before := s.res.Rounds
	ok = s.step()
	if s.res.Rounds == before {
		return nil, false
	}
	return s.ds.d(), ok
}

// Run drives the session to termination or the round budget and returns
// the cumulative statistics.
func (s *DirectedSession) Run() DirectedResult {
	for s.step() {
	}
	return s.res
}

// RunUntil steps until pred(g) holds (checked before every round),
// termination, or budget exhaustion, and returns the statistics so far.
// pred is a breakpoint, not a terminal state.
func (s *DirectedSession) RunUntil(pred func(g *graph.Directed) bool) DirectedResult {
	for !pred(s.g) && s.step() {
	}
	return s.res
}

// denseAct is the directed dense-phase act body for the node range
// [lo, hi): instead of two-hop walks from every node — near closure almost
// all of them land on known arcs — it samples up to hi-lo proposals from
// the range's missing-closure incidences. A draw picks t uniform in
// [0, Σ missingRow[u]), landing on node u with probability proportional to
// its missing closure arcs and on the t'-th of them uniformly
// (target[u] &^ out[u] selected without materializing the difference).
// Every proposal is an arc of the initial graph's closure, so the closure
// invariant the termination counter is built on is preserved. Ranges with
// no missing closure arcs consume no generator output.
func (s *DirectedSession) denseAct(lo, hi int, r *rng.Rand, propose func(a, b int)) {
	// Draw-to-node lookup mirrors Session.denseAct: linear scan for shard
	// ranges, prefix sums + binary search for the sequential engine's
	// whole-graph range; both map t to the identical (u, t') pair.
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
			tot += int(s.missingRow[lo+i])
			prefix[i+1] = tot
		}
	} else {
		for u := lo; u < hi; u++ {
			tot += int(s.missingRow[u])
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
				md := int(s.missingRow[u])
				if t < md {
					break
				}
				t -= md
				u++
			}
		}
		propose(u, s.g.RowSelectDiff(u, s.target[u], t))
	}
}

// InDensePhase reports whether the session has crossed its DensePhase
// threshold and is sampling proposals from the missing-closure set.
func (s *DirectedSession) InDensePhase() bool { return s.dense }

// Round returns the number of committed rounds so far. O(1).
func (s *DirectedSession) Round() int { return s.res.Rounds }

// ClosureArcsRemaining returns the number of arcs of the initial graph's
// transitive closure still missing — 0 exactly at closure. O(1).
func (s *DirectedSession) ClosureArcsRemaining() int { return s.missing }

// MissingClosureDegree returns the number of arcs of the initial graph's
// transitive closure node u is still missing toward. O(1), maintained by
// the commit paths.
func (s *DirectedSession) MissingClosureDegree(u int) int {
	return int(s.missingRow[u])
}

// Stats returns a snapshot of the cumulative run statistics. O(1).
// DirectedResult is bit-identical across worker schedules by contract; the
// schedule itself is read through EngineStats.
func (s *DirectedSession) Stats() DirectedResult { return s.res }

// EngineStats returns the session's schedule telemetry, exactly as
// Session.EngineStats does for undirected sessions. O(1).
func (s *DirectedSession) EngineStats() EngineStats {
	if s.mode != CommitSynchronous || s.workers == 0 {
		return EngineStats{ConfiguredWorkers: s.workers}
	}
	if s.eng != nil {
		return s.eng.stats(s.workers)
	}
	return prospectiveEngineStats(s.workers, s.g.N())
}

// Converged reports whether the termination predicate has fired.
func (s *DirectedSession) Converged() bool { return s.res.Converged }

// Graph exposes the session's live digraph (read-only use between steps).
func (s *DirectedSession) Graph() *graph.Directed { return s.g }

// Close releases the parked worker goroutines of a sharded session. It is
// idempotent; the session must not be stepped afterwards.
func (s *DirectedSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.eng != nil {
		s.eng.stop()
	}
}
