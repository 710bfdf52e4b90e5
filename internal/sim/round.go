package sim

import (
	"fmt"
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file is the round core under Session and DirectedSession: the
// lifecycle, the lazy engine dispatch, the round body and the dense-phase
// act, written once over the graph type G and the proposal type P. The
// paper's third process is the same two-hop walk read over out-neighbours,
// and above the graph the two runs differ only in what a proposal commits
// to and what counts as done; that part sits behind substrate, which each
// session type implements itself.
//
// # Lifecycle
//
// A round moves through three states:
//
//	ready    — constructed; no generator output consumed yet
//	running  — at least one round executed
//	finished — the termination predicate fired, or the budget is exhausted
//
// The engine is created lazily on the first step, so a session whose graph
// is done at entry consumes no generator output at all — exactly as the Run
// facades behaved. Close ends the session; it is idempotent.

// pair is the shape of a proposal: graph.Edge and graph.Arc are both
// struct{ U, V int }, so the one propose closure builds either as
// P{U: a, V: b}.
type pair interface{ ~struct{ U, V int } }

// substrate is what a round asks of the session that embeds it. It is
// called per round and per dense-phase draw — never per node of a normal
// round, whose calls stay p.Act / ActRange through the process interface and
// propose through a hoisted func value.
type substrate[P pair] interface {
	// converged evaluates the termination predicate.
	converged() bool
	// missing is the count the dense-phase threshold is compared against;
	// it never grows.
	missing() int
	// missingDegree is node u's share of the dense phase's sampling weight.
	missingDegree(u int) int
	// missingPick returns the t-th missing partner of u, t in
	// [0, missingDegree(u)); ok == false discards the draw.
	missingPick(u, t int) (w int, ok bool)
	// commit inserts a synchronous round's proposals, in node order,
	// through the grouped graph path and returns the newly inserted ones,
	// filtered in place into the front of props.
	commit(props []P) []P
	// commitEager inserts one proposal at once and reports whether it was
	// new; the substrate appends it to the round's buffer itself, if
	// anything will read it.
	commitEager(a, b int) bool
	// publish closes the round on the session's side: accounting over the
	// accepted list, the delta, the bus.
	publish(round int, accepted []P)
}

// rangeActor is the block form of a synchronous act: the process performs
// Act for every node of [lo, hi) in increasing order on the one stream r and
// appends what those Acts would have proposed, in order, to props. The
// contract is bit-identity with the per-node loop — same proposals, same
// final state of r — so taking it changes no result; it exists because a
// process that sees the whole range can overlap its nodes' memory reads
// (core.Push.ActRange) or make a block's draws in one call
// (core.Pull.ActRange, core.DirectedTwoHop.ActRange). The churn runtime's
// core.Crashed{Push} and core.CrashedPull do the same with their liveness
// mask handed to the graph (core.Crashed over another inner loops over its
// Act). dispatch asks for it once, on the process exactly as configured: any
// other wrapper (a population, core.Wrap / WrapDirected with a behavior
// chain) does not have it and acts node by node, as do eager commits, the
// dense phase, RunAsync and eventsim. Wrap(p) with an empty chain
// returns p itself, so it takes the block path when p does.
type rangeActor[G any, P pair] interface {
	ActRange(g G, lo, hi int, r *rng.Rand, props []P) []P
}

// rangeActors and directedRangeActors list the core types that take the
// block path, so that adding one is a decision made here. A type that embeds
// one of these would inherit its ActRange past its own Act;
// TestRangeActorsListed / TestDirectedRangeActorsListed fail on any core
// process that has the method and is not on its list.
var (
	rangeActors         = []rangeActor[*graph.Undirected, graph.Edge]{core.Push{}, core.Pull{}, core.Crashed{}, core.CrashedPull{}}
	directedRangeActors = []rangeActor[*graph.Directed, graph.Arc]{core.DirectedTwoHop{}}
)

// round is the state and code Session and DirectedSession share; each embeds
// one and sets sub to itself.
type round[G any, P pair] struct {
	g   G
	n   int // node count of g, fixed for the session's life
	p   core.ProcessOn[G]
	r   *rng.Rand
	sub substrate[P]

	mode      CommitMode
	workers   int
	maxRounds int

	started  bool
	finished bool
	closed   bool

	// res holds the counters both substrates keep; DirectedSession.Stats
	// reads NewEdges as NewArcs.
	res Result

	// Dense-phase state. denseThreshold < 0 means the mode is disarmed;
	// otherwise, once sub.missing() drops to the threshold, dense flips
	// true and the act phase samples proposals from the missing set instead
	// of scanning all nodes (see Config.DensePhase). densePrefix is the
	// sequential engine's reusable prefix-sum scratch (shard calls scan
	// their <= shardNodes range linearly).
	denseThreshold int
	dense          bool
	densePrefix    []int

	// shards is the act phase's node ranges and their streams, set by
	// dispatch: the sharded engine's fixed layout (engine.go) under
	// synchronous mode with Workers >= 1, else [0, n) on the session's r.
	shards []shard

	// ranged is the process's block form, set by dispatch when a synchronous
	// session's process has one (see rangeActor); nil means every act goes
	// node by node through p.Act.
	ranged rangeActor[G, P]

	// propose is the hoisted closure per-node acts propose through. buf is
	// the one reused round buffer: the round's proposals, then the accepted
	// ones its commit filters into the front (eager rounds append only those).
	propose func(a, b int)
	buf     []P
}

// setup runs the constructor checks both sessions share, on a round whose
// configuration fields the session has filled in. Junk fails fast here rather
// than misbehaving downstream: a negative workers (field names it in the
// panic), a mode that is no CommitMode and a densePhase outside [0, 1] —
// NaN included — panic (TestNewSessionRejectsJunkConfig). maxRounds == 0 selects defaultRounds,
// any negative value means unbounded. A densePhase in (0, 1] arms the dense
// phase at densePhase × denseTotal missing units, under CommitSynchronous
// only.
func (r *round[G, P]) setup(field string, defaultRounds int, densePhase float64, denseTotal int) {
	validateWorkers(r.workers, field)
	if r.mode != CommitSynchronous && r.mode != CommitEager {
		panic(fmt.Sprintf("sim: unknown commit mode %d", r.mode))
	}
	if !(densePhase >= 0 && densePhase <= 1) {
		panic(fmt.Sprintf("sim: DensePhase %v outside [0, 1]", densePhase))
	}
	if r.maxRounds == 0 {
		r.maxRounds = defaultRounds
	} else if r.maxRounds < 0 {
		r.maxRounds = math.MaxInt
	}
	r.denseThreshold = -1
	if densePhase > 0 && r.mode == CommitSynchronous {
		r.denseThreshold = int(densePhase * float64(denseTotal))
	}
}

// dispatch performs the engine-family setup. It runs lazily, at the first
// step that actually executes a round, so a session that is done at entry
// (or never stepped) consumes no generator output. A session resumed by a
// membership mutation after finishing at entry dispatches here too.
func (r *round[G, P]) dispatch() {
	r.shards = []shard{{hi: r.n, r: r.r}}
	if r.mode == CommitEager {
		r.propose = func(a, b int) {
			r.res.Proposals++
			if r.sub.commitEager(a, b) {
				r.res.NewEdges++
			} else {
				r.res.DuplicateProposals++
			}
		}
		return
	}
	r.ranged, _ = r.p.(rangeActor[G, P])
	r.propose = func(a, b int) { r.buf = append(r.buf, P{U: a, V: b}) }
	if r.workers != 0 {
		r.shards = newShards(r.n, r.r)
	}
}

// act runs the act phase of the nodes [lo, hi) on the stream gen, appending
// their proposals to buf (or, under eager commits, committing them).
func (r *round[G, P]) act(lo, hi int, gen *rng.Rand) {
	switch {
	case r.dense:
		r.denseAct(lo, hi, gen)
	case r.ranged != nil:
		r.buf = r.ranged.ActRange(r.g, lo, hi, gen, r.buf)
	default:
		for u := lo; u < hi; u++ {
			r.p.Act(r.g, u, gen, r.propose)
		}
	}
}

// step executes one committed round and reports whether the session can
// continue. It is the single round body under Step, Run, and RunUntil.
func (r *round[G, P]) step() bool {
	if r.finished || r.closed {
		return false
	}
	if !r.started {
		// Done-at-entry check, before any generator output is consumed.
		r.started = true
		if r.sub.converged() {
			r.res.Converged = true
			r.finished = true
			return false
		}
	}
	if r.res.Rounds >= r.maxRounds {
		r.finished = true
		return false
	}
	if r.propose == nil {
		r.dispatch()
	}
	if r.denseThreshold >= 0 && !r.dense && r.sub.missing() <= r.denseThreshold {
		// Crossing the threshold is one-way: the graph only grows, so the
		// missing count never climbs back above it.
		r.dense = true
	}
	num := r.res.Rounds + 1
	r.buf = r.buf[:0]

	// Act phase: every node acts on G_t before anything commits, shard by
	// shard; shards are contiguous, so buf ends in node order.
	for _, sh := range r.shards {
		r.act(sh.lo, sh.hi, sh.r)
	}
	if r.mode == CommitSynchronous {
		// One grouped commit filters the accepted proposals into the front
		// of buf: state-identical to per-edge commits in node order, and the
		// accepted list doubles as the round's delta.
		proposals := len(r.buf)
		r.buf = r.sub.commit(r.buf)
		r.res.Proposals += proposals
		r.res.NewEdges += len(r.buf)
		r.res.DuplicateProposals += proposals - len(r.buf)
	}
	r.res.Rounds = num

	r.sub.publish(num, r.buf)
	if r.sub.converged() {
		r.res.Converged = true
		r.finished = true
		return false
	}
	if r.res.Rounds >= r.maxRounds {
		r.finished = true
		return false
	}
	return true
}

// denseAct is the dense-phase act body for the node range [lo, hi): the
// whole range under the sequential engine, one shard under the sharded one
// (each shard draws from its own stream, which is what keeps dense rounds
// bit-identical for every Workers >= 1). Instead of letting every node
// gossip — near the end almost every such proposal is a duplicate — it
// samples up to hi-lo proposals from the range's missing incidences: a draw
// picks t uniform in [0, Σ missingDegree(u)), which lands on node u with
// probability proportional to u's missing work and on u's t'-th missing
// partner w uniformly within it, and proposes exactly the missing (u, w).
// Every draw reads only the committed graph, so the act phase stays
// read-only. Ranges (and whole rounds) with no missing work consume no
// generator output.
func (r *round[G, P]) denseAct(lo, hi int, gen *rng.Rand) {
	// Locating a draw's node: shard calls cover at most shardNodes nodes
	// and scan their missing degrees linearly; the sequential engine's
	// whole-graph call builds prefix sums once per round and binary-
	// searches each draw, keeping the round O(n + budget·(log n + n/64))
	// instead of O(n·budget). Both map t to the identical (u, t') pair —
	// the graph is read-only during the act — so the two lookups share
	// one deterministic trajectory.
	sub := r.sub
	width := hi - lo
	var prefix []int
	tot := 0
	if width > shardNodes {
		if cap(r.densePrefix) < width+1 {
			r.densePrefix = make([]int, width+1)
		}
		prefix = r.densePrefix[:width+1]
		prefix[0] = 0
		for i := 0; i < width; i++ {
			tot += sub.missingDegree(lo + i)
			prefix[i+1] = tot
		}
	} else {
		for u := lo; u < hi; u++ {
			tot += sub.missingDegree(u)
		}
	}
	if tot == 0 {
		return
	}
	for range min(width, tot) {
		t := gen.Intn(tot)
		var u int
		if prefix != nil {
			i := prefixOwner(prefix, t)
			u = lo + i
			t -= prefix[i]
		} else {
			u = lo
			for {
				md := sub.missingDegree(u)
				if t < md {
					break
				}
				t -= md
				u++
			}
		}
		if w, ok := sub.missingPick(u, t); ok {
			r.buf = append(r.buf, P{U: u, V: w})
		}
	}
}

// prefixOwner returns the first i with prefix[i+1] > t: the node (offset)
// whose slice of the prefix sums a dense-phase draw t lands in. A plain
// loop, no closure; on go1.24 it times the same as the sort.Search it
// replaced (64 vs 65 ns at width 2048), the probes' mispredicted branches
// being the cost either way.
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
// threshold and is sampling proposals from the missing set. Always false
// when the mode is disarmed.
func (r *round[G, P]) InDensePhase() bool { return r.dense }

// Round returns the number of committed rounds so far. O(1).
func (r *round[G, P]) Round() int { return r.res.Rounds }

// Converged reports whether the termination predicate has fired.
func (r *round[G, P]) Converged() bool { return r.res.Converged }

// Graph exposes the session's live graph. Read freely between steps; mutate
// an undirected session's only through the session's mutation methods, so
// the membership accounting stays consistent.
func (r *round[G, P]) Graph() G { return r.g }

// Close ends the session: every later step reports that the session cannot
// continue. It is idempotent.
func (r *round[G, P]) Close() { r.closed = true }
