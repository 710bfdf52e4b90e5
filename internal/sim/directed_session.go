package sim

import (
	"gossipdisc/internal/bitset"
	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// DirectedSession is the directed counterpart of Session: a resumable run
// of a directed process toward the transitive closure of the initial
// graph. Construction computes the closure target once (Section 5's
// invariant: the two-hop walk can never escape it) by one condensation
// pass — a reach row per strongly connected component, shared by its
// members — after which ClosureArcsRemaining is an O(1) progress read at
// every step. The RunDirected facade is a thin wrapper over a
// DirectedSession, so stepped and fire-and-forget runs are bit-identical
// for every engine family.
type DirectedSession struct {
	round[*graph.Directed, graph.Arc]
	done func(*graph.Directed) bool // nil ⇒ closure reached

	// Closure target of the *initial* graph, its arc count, and the count of
	// its arcs still missing — the engine's own O(1) termination/progress
	// counter. Node u's target row is reach[comp[u]] without u (u is in its
	// own reach row, never in its out-row). missingRow[u] is the per-node
	// share (target arcs of u not yet in u's out-row); both counters are
	// maintained by the commit paths, and the dense phase samples from
	// missingRow.
	comp       []int32
	reach      []*bitset.Set
	targetArcs int
	remaining  int
	missingRow []int32

	// Observation bus and delta accumulator, mirroring Session.
	bus stream.Bus
	acc *stream.DirectedDeltaAccumulator
}

// NewDirectedSession constructs a resumable directed session over g. The
// transitive closure of g is computed here (no generator output is
// consumed). As with Session, any negative cfg.MaxRounds means unbounded
// stepping, and junk configuration panics here with a clear message (see
// round.setup).
func NewDirectedSession(g *graph.Directed, p core.DirectedProcess, r *rng.Rand, cfg DirectedConfig) *DirectedSession {
	validateWorkers(cfg.Workers, "DirectedConfig.Workers")
	n := g.N()
	comp, reach := g.Condensation()
	s := &DirectedSession{
		done:       cfg.Done,
		comp:       comp,
		reach:      reach,
		missingRow: make([]int32, n),
	}
	for u, c := range comp {
		s.targetArcs += reach[c].Count() - 1
		miss := g.RowDiffCount(u, reach[c]) - 1
		s.missingRow[u] = int32(miss)
		s.remaining += miss
	}
	s.round = round[*graph.Directed, graph.Arc]{
		g: g, n: n, p: p, r: r, sub: s,
		mode: cfg.Mode, maxRounds: cfg.MaxRounds,
	}
	s.setup(DefaultDirectedMaxRounds(n), cfg.DensePhase, s.targetArcs)
	return s
}

// Subscribe attaches sub to the session's observation bus: a
// KindDirectedRound event fires after every committed round, in
// subscription order on the stepping goroutine. Attaching subscribers does
// not perturb the run (TestBusEquivalenceDirected); payloads are reused
// across rounds — copy anything retained.
func (s *DirectedSession) Subscribe(sub stream.Subscriber) {
	s.bus.Subscribe(sub)
	s.ensureAcc()
}

// ensureAcc allocates the delta accumulator and performs the one-time
// MissingClosureDegree bind.
func (s *DirectedSession) ensureAcc() {
	if s.acc == nil {
		s.acc = stream.NewDirectedDeltaAccumulator(s.n)
		s.acc.D.MissingClosureDegree = s.MissingClosureDegree
	}
}

// The substrate of a directed round: done is the Done override or "no
// closure arc is missing", the dense phase samples the missing closure arcs
// (reach[comp[u]] &^ out[u] without u, selected by RowSelectDiff without
// materializing the difference — every dense proposal is an arc of the
// initial graph's closure, so the invariant the termination counter is built
// on holds), and the commit paths settle the closure counters.

func (s *DirectedSession) converged() bool {
	if s.done != nil {
		return s.done(s.g)
	}
	return s.remaining == 0
}

func (s *DirectedSession) missing() int            { return s.remaining }
func (s *DirectedSession) missingDegree(u int) int { return int(s.missingRow[u]) }

// missingPick skips u itself, the one bit of the shared row's difference
// that is not a closure arc: the t-th of the rest is the t-th of the whole
// below u and the (t+1)-th from u up.
func (s *DirectedSession) missingPick(u, t int) (int, bool) {
	row := s.reach[s.comp[u]]
	if w := s.g.RowSelectDiff(u, row, t); w < u {
		return w, true
	}
	return s.g.RowSelectDiff(u, row, t+1), true
}

// settle takes a newly inserted arc off the closure counters. An arc is
// never a self-arc, so the shared row needs no per-node self bit cleared.
func (s *DirectedSession) settle(a graph.Arc) {
	if s.reach[s.comp[a.U]].Test(a.V) {
		s.remaining--
		s.missingRow[a.U]--
	}
}

func (s *DirectedSession) commit(props []graph.Arc) []graph.Arc {
	accepted := s.g.AddArcsGrouped(props, props[:0])
	for _, a := range accepted {
		s.settle(a)
	}
	return accepted
}

func (s *DirectedSession) commitEager(a, b int) bool {
	if !s.g.AddArc(a, b) {
		return false
	}
	arc := graph.Arc{U: a, V: b}
	s.settle(arc)
	if s.observed() {
		s.buf = append(s.buf, arc)
	}
	return true
}

// observed: publish reads the accepted arcs only for the delta.
func (s *DirectedSession) observed() bool { return s.acc != nil }

func (s *DirectedSession) publish(round int, accepted []graph.Arc) {
	if s.acc != nil {
		s.acc.Fill(round, accepted, s.remaining)
		s.bus.EmitDirectedRound(s.g, &s.acc.D, float64(round))
	}
}

// Step executes one committed round and returns its delta plus whether the
// session can continue. The final converging round is returned with
// ok == false; a Step after that returns (nil, false). The delta and its
// slices are reused across rounds — copy anything retained.
func (s *DirectedSession) Step() (d *DirectedRoundDelta, ok bool) {
	s.ensureAcc()
	before := s.res.Rounds
	ok = s.step()
	if s.res.Rounds == before {
		return nil, false
	}
	return &s.acc.D, ok
}

// Run drives the session to termination or the round budget and returns
// the cumulative statistics.
func (s *DirectedSession) Run() DirectedResult {
	for s.step() {
	}
	return s.Stats()
}

// RunUntil steps until pred(g) holds (checked before every round),
// termination, or budget exhaustion, and returns the statistics so far.
// pred is a breakpoint, not a terminal state.
func (s *DirectedSession) RunUntil(pred func(g *graph.Directed) bool) DirectedResult {
	for !pred(s.g) && s.step() {
	}
	return s.Stats()
}

// ClosureArcsRemaining returns the number of arcs of the initial graph's
// transitive closure still missing — 0 exactly at closure. O(1).
func (s *DirectedSession) ClosureArcsRemaining() int { return s.remaining }

// MissingClosureDegree returns the number of arcs of the initial graph's
// transitive closure node u is still missing toward. O(1), maintained by
// the commit paths.
func (s *DirectedSession) MissingClosureDegree(u int) int {
	return int(s.missingRow[u])
}

// Stats returns a snapshot of the cumulative run statistics: the round
// core's counters under their directed names, plus the closure target. O(1).
func (s *DirectedSession) Stats() DirectedResult {
	return DirectedResult{
		Rounds:             s.res.Rounds,
		Converged:          s.res.Converged,
		Proposals:          s.res.Proposals,
		NewArcs:            s.res.NewEdges,
		DuplicateProposals: s.res.DuplicateProposals,
		TargetArcs:         s.targetArcs,
	}
}
