package sim

import (
	"fmt"
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file is the round core under Session and DirectedSession: the
// lifecycle, the round body and the dense-phase act, written once over the
// graph type G and the proposal type P. The paper's third process is the
// same two-hop walk read over out-neighbours, and above the graph the two
// runs differ only in what a proposal commits to and what counts as done;
// that part sits behind substrate, which each session type implements
// itself.
//
// # Lifecycle
//
// A round moves through three states:
//
//	ready    — constructed; no generator output consumed yet
//	running  — at least one round executed
//	finished — the termination predicate fired, or the budget is exhausted
//
// Nothing draws from the generator before the first round, so a session
// whose graph is done at entry consumes no generator output at all —
// exactly as the Run facades behaved. Close ends the session; it is
// idempotent.

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
	// observed.
	commitEager(a, b int) bool
	// observed reports whether publish reads the accepted list; while it
	// does not, a round keeps none.
	observed() bool
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
// mask handed to the graph.
//
// setup takes it once, on the process exactly as configured, and only from
// a process that reads the graph through the sampling reads alone
// (blockActor): the four core types and core.Crashed over core.Push, not
// over another inner, whose Act may read anything (HasEdge, M). Any other
// process — a population, a behavior chain, a user Process — acts node by
// node, as do eager commits, the dense phase, RunAsync and eventsim; Wrap(p)
// with an empty chain returns p itself, so it takes the block path when p
// does. A sparse round of more than one block commits the block form block
// by block over the frozen graph (actBlocks); otherwise one ActRange over
// all nodes fills the round buffer, committed once (DESIGN.md "Committing
// block by block" has why dense rows keep the buffer).
type rangeActor[G any, P pair] interface {
	ActRange(g G, lo, hi int, r *rng.Rand, props []P) []P
}

// rangeActors and directedRangeActors list the core types that take the
// block path (core.Crashed only over core.Push, see blockActor), so that
// adding one is a decision made here. A type that embeds one of these would
// inherit its ActRange past its own Act;
// TestRangeActorsListed / TestDirectedRangeActorsListed fail on any core
// process that has the method and is not on its list.
var (
	rangeActors         = []rangeActor[*graph.Undirected, graph.Edge]{core.Push{}, core.Pull{}, core.Crashed{}, core.CrashedPull{}}
	directedRangeActors = []rangeActor[*graph.Directed, graph.Arc]{core.DirectedTwoHop{}}
)

// blockActor returns p's block form if p reads the graph only through the
// sampling reads (see rangeActor), nil otherwise.
func blockActor[G any, P pair](p core.ProcessOn[G]) rangeActor[G, P] {
	if c, ok := any(p).(core.Crashed); ok {
		if _, push := c.Inner.(core.Push); !push {
			return nil
		}
	}
	ra, _ := p.(rangeActor[G, P])
	return ra
}

// blockNodes is how many nodes a block of a committing-as-it-goes round
// acts before it commits: its buffer holds at most one proposal per node
// for every process that takes the path, 8 KiB of edges.
const blockNodes = 512

// frozenGraph is the graph of a round: Freeze and Thaw bracket the
// block-committed act (graph.Undirected.Freeze), which only a sparse graph
// takes.
type frozenGraph interface {
	Freeze()
	Thaw()
	Backend() graph.Backend
}

// round is the state and code Session and DirectedSession share; each embeds
// one and sets sub to itself.
type round[G frozenGraph, P pair] struct {
	g   G
	n   int // node count of g, fixed for the session's life
	p   core.ProcessOn[G]
	r   *rng.Rand
	sub substrate[P]

	mode      CommitMode
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
	// reusable prefix-sum scratch.
	denseThreshold int
	dense          bool
	densePrefix    []int

	// ranged is the process's block form, set by setup when a synchronous
	// session's process may take it (see rangeActor); nil means every act
	// goes node by node through p.Act. blockSize is how many nodes it acts
	// per commit: blockNodes on a sparse graph of more, n otherwise.
	ranged    rangeActor[G, P]
	blockSize int

	// propose is the hoisted closure per-node acts propose through. buf is
	// the one reused round buffer: the proposals of the round or of its
	// block, then the accepted ones its commit filters into the front. An
	// observed round keeps every accepted one, an unobserved block-committed
	// round only its block's; eager rounds append the accepted ones alone.
	propose func(a, b int)
	buf     []P
}

// setup runs the constructor checks both sessions share, on a round whose
// configuration fields the session has filled in. Junk fails fast here rather
// than misbehaving downstream: a mode that is no CommitMode and a densePhase
// outside [0, 1] — NaN included — panic (TestNewSessionRejectsJunkConfig).
// maxRounds == 0 selects defaultRounds, any negative value means unbounded.
// A densePhase in (0, 1] arms the dense phase at densePhase × denseTotal
// missing units, under CommitSynchronous only. setup then hoists the
// commit mode's propose closure and takes the process's block form.
func (r *round[G, P]) setup(defaultRounds int, densePhase float64, denseTotal int) {
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
	r.ranged, r.blockSize = blockActor[G, P](r.p), r.n
	if r.n > blockNodes && r.g.Backend() == graph.BackendSparse {
		r.blockSize = blockNodes
	}
	r.propose = func(a, b int) { r.buf = append(r.buf, P{U: a, V: b}) }
}

// act runs the round: every node acts on G_t, in node order on the
// session's stream, and its proposals commit — block by block, all at once
// after the last node, or, under eager commits, each as it is made.
func (r *round[G, P]) act() {
	switch {
	case r.dense:
		r.denseAct()
		r.buf = r.commitBatch(r.buf)
	case r.ranged != nil:
		r.actBlocks()
	default:
		for u := 0; u < r.n; u++ {
			r.p.Act(r.g, u, r.r, r.propose)
		}
		if r.mode == CommitSynchronous {
			r.buf = r.commitBatch(r.buf)
		}
	}
}

// actBlocks is the block act: each block of blockSize nodes acts into buf,
// behind the accepted edges kept so far, and commits at once. With more
// than one block the graph stays frozen at G_t throughout, and the blocks'
// commits in order are the one commit of the whole round's proposals, so
// the round is the buffered one.
func (r *round[G, P]) actBlocks() {
	frozen, keep := r.blockSize < r.n, r.sub.observed()
	if frozen {
		r.g.Freeze()
	}
	for lo := 0; lo < r.n; lo += r.blockSize {
		start := 0
		if keep {
			start = len(r.buf)
		}
		props := r.ranged.ActRange(r.g, lo, min(lo+r.blockSize, r.n), r.r, r.buf[:start])
		r.buf = props[:start+len(r.commitBatch(props[start:]))]
	}
	if frozen {
		r.g.Thaw()
	}
}

// commitBatch is one synchronous commit of props: the grouped insert
// filters the accepted proposals into the front of props, state-identical
// to per-edge commits in order, and the counters take the batch.
func (r *round[G, P]) commitBatch(props []P) []P {
	accepted := r.sub.commit(props)
	r.res.Proposals += len(props)
	r.res.NewEdges += len(accepted)
	r.res.DuplicateProposals += len(props) - len(accepted)
	return accepted
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
	if r.denseThreshold >= 0 && !r.dense && r.sub.missing() <= r.denseThreshold {
		// Crossing the threshold is one-way: the graph only grows, so the
		// missing count never climbs back above it.
		r.dense = true
	}
	num := r.res.Rounds + 1
	r.buf = r.buf[:0]

	r.act()
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

// denseAct is the dense-phase act body. Instead of letting every node
// gossip — near the end almost every such proposal is a duplicate — it
// samples up to n proposals from the graph's missing incidences: a draw
// picks t uniform in [0, Σ missingDegree(u)), which lands on node u with
// probability proportional to u's missing work and on u's t'-th missing
// partner w uniformly within it, and proposes exactly the missing (u, w).
// Prefix sums, built once per round, locate each draw's node by binary
// search, keeping the round O(n + budget·(log n + n/64)) instead of
// O(n·budget). Every draw reads only the committed graph, so the act phase
// stays read-only. A round with no missing work consumes no generator
// output.
func (r *round[G, P]) denseAct() {
	if cap(r.densePrefix) < r.n+1 {
		r.densePrefix = make([]int, r.n+1)
	}
	prefix := r.densePrefix[:r.n+1]
	tot := 0
	for u := 0; u < r.n; u++ {
		tot += r.sub.missingDegree(u)
		prefix[u+1] = tot
	}
	if tot == 0 {
		return
	}
	for range min(r.n, tot) {
		t := r.r.Intn(tot)
		u := prefixOwner(prefix, t)
		if w, ok := r.sub.missingPick(u, t-prefix[u]); ok {
			r.buf = append(r.buf, P{U: u, V: w})
		}
	}
}

// prefixOwner returns the first i with prefix[i+1] > t: the node whose
// slice of the prefix sums a dense-phase draw t lands in. A plain loop, no
// closure; on go1.24 it times the same as the sort.Search it replaced (64
// vs 65 ns at width 2048), the probes' mispredicted branches being the
// cost either way.
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
