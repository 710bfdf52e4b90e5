package stream

import (
	"gossipdisc/internal/graph"
)

// This file holds the round-delta payload types and the shared accumulators
// that fill them. The commit path already knows exactly which proposals
// survived a round — the grouped graph commits return the accepted list —
// so instead of forcing consumers to re-scan the graph (O(n + m) per
// round), the engines emit the round's *changes* directly: the new edges,
// the per-node degree increments they imply, and the O(1) edges-remaining
// counter. Incremental consumers (metrics trajectories, the analyze pack)
// rebuild any snapshot quantity from this stream without ever touching the
// graph.
//
// The types lived in internal/sim before the bus existed; they moved here
// so every runtime (and the analyzers, which must not depend on any one
// runtime) shares one definition. internal/sim aliases them under their old
// names, so existing consumers and goldens are untouched.
//
// Determinism: a delta stream is a pure function of (graph, process,
// generator, engine family). A synchronous round's accepted list comes
// from one grouped commit of the round's proposals in node order, so the
// stream is bit-identical at any GOMAXPROCS — the same contract the Result
// obeys.

// RoundDelta describes everything that changed in one committed synchronous
// round of an undirected run. The engine reuses the delta and its slices
// across rounds: subscribers must copy anything they retain.
type RoundDelta struct {
	// Round is the 1-based round number.
	Round int
	// NewEdges lists the edges inserted this round, normalized U < V, in
	// deterministic commit order. For membership-mutated sessions, edges
	// injected between steps via Session.AddEdge lead the list, so the
	// stream accounts for every insertion the graph saw.
	NewEdges []graph.Edge
	// EdgeTimes holds the exact simulated time at which each NewEdges
	// entry was accepted, index for index. The event-driven runtime sets
	// it; nil, as on the synchronous and churn runtimes, means every
	// edge landed at the event's Time.
	EdgeTimes []float64
	// Touched lists the nodes whose degree changed this round, in first-
	// touch order of NewEdges.
	Touched []int32
	// DegreeInc is indexed by node: DegreeInc[u] is u's degree increment
	// this round (nonzero exactly for the nodes in Touched).
	DegreeInc []int32
	// EdgesRemaining is the number of node pairs still missing after the
	// commit — 0 exactly when the graph is complete. For sessions with
	// membership tracking enabled it counts only pairs of current members
	// (matching Session.EdgesRemaining): pairs involving departed nodes
	// are not outstanding work.
	EdgesRemaining int
	// MissingDegree reports, in O(1), how many nodes u is not yet adjacent
	// to (excluding u itself) — the per-node complement view, bound to the
	// run's live graph at the first emitted round. Like the event's Graph,
	// it reflects the post-commit state.
	MissingDegree func(u int) int
	// Joined / Left list the membership events applied through
	// Session.InsertNode / Session.RemoveNode since the previous committed
	// round, in application order. They are empty unless the run is a
	// Session with membership tracking enabled (see Session.TrackMembership).
	Joined []int32
	Left   []int32
	// Members and MemberEdges mirror the session's incremental coverage
	// counts after the commit: the current member count and the number of
	// edges joining two members. Both are 0 when membership tracking is off.
	Members     int
	MemberEdges int
}

// DirectedRoundDelta is the directed counterpart of RoundDelta. As there,
// the engine reuses the delta and its slices across rounds.
type DirectedRoundDelta struct {
	// Round is the 1-based round number.
	Round int
	// NewArcs lists the arcs inserted this round, in deterministic commit
	// order.
	NewArcs []graph.Arc
	// OutTouched / OutDegreeInc describe out-degree increments, exactly as
	// RoundDelta.Touched / DegreeInc describe undirected degrees.
	OutTouched   []int32
	OutDegreeInc []int32
	// InTouched / InDegreeInc describe in-degree increments.
	InTouched   []int32
	InDegreeInc []int32
	// ClosureArcsRemaining is the number of arcs of the initial graph's
	// transitive closure still missing after the commit — 0 exactly at
	// termination. It is the engine's own O(1) progress counter.
	ClosureArcsRemaining int
	// MissingClosureDegree reports, in O(1), how many arcs of the initial
	// graph's transitive closure node u is still missing toward — the
	// per-node progress counter the directed dense phase samples from. It
	// is bound to the emitting session at the first emitted round and
	// reflects the post-commit state.
	MissingClosureDegree func(u int) int
}

// DeltaAccumulator owns one run's reusable RoundDelta and fills it from
// each round's accepted-edge list. It is the single fill implementation
// shared by the synchronous engines and the event-driven runtime (which
// used to carry a verbatim copy). Steady-state
// fills allocate nothing once the slices are warm.
type DeltaAccumulator struct {
	D RoundDelta
}

// NewDeltaAccumulator returns an accumulator sized for n nodes.
func NewDeltaAccumulator(n int) *DeltaAccumulator {
	return &DeltaAccumulator{D: RoundDelta{DegreeInc: make([]int32, n)}}
}

// Fill populates the delta's commit-derived fields — NewEdges, Touched,
// DegreeInc, Round, EdgesRemaining, and the one-time MissingDegree bind —
// from the round's accepted edges. Session-level fields (membership) are
// the caller's to set between Fill and publish.
func (a *DeltaAccumulator) Fill(round int, g *graph.Undirected, accepted []graph.Edge) {
	d := &a.D
	if d.MissingDegree == nil {
		d.MissingDegree = g.MissingDegree // one-time bind; steady-state fills stay alloc-free
	}
	for _, u := range d.Touched {
		d.DegreeInc[u] = 0
	}
	d.Touched = d.Touched[:0]
	d.NewEdges = append(d.NewEdges[:0], accepted...)
	for _, e := range accepted {
		if d.DegreeInc[e.U] == 0 {
			d.Touched = append(d.Touched, int32(e.U))
		}
		d.DegreeInc[e.U]++
		if d.DegreeInc[e.V] == 0 {
			d.Touched = append(d.Touched, int32(e.V))
		}
		d.DegreeInc[e.V]++
	}
	d.Round = round
	d.EdgesRemaining = g.MissingEdges()
}

// DirectedDeltaAccumulator owns one run's reusable DirectedRoundDelta.
type DirectedDeltaAccumulator struct {
	D DirectedRoundDelta
}

// NewDirectedDeltaAccumulator returns an accumulator sized for n nodes.
func NewDirectedDeltaAccumulator(n int) *DirectedDeltaAccumulator {
	return &DirectedDeltaAccumulator{D: DirectedRoundDelta{
		OutDegreeInc: make([]int32, n),
		InDegreeInc:  make([]int32, n),
	}}
}

// Fill populates the delta from the round's accepted arcs and the engine's
// missing-closure counter. The one-time MissingClosureDegree bind is the
// caller's.
func (a *DirectedDeltaAccumulator) Fill(round int, accepted []graph.Arc, closureRemaining int) {
	d := &a.D
	for _, u := range d.OutTouched {
		d.OutDegreeInc[u] = 0
	}
	for _, v := range d.InTouched {
		d.InDegreeInc[v] = 0
	}
	d.OutTouched = d.OutTouched[:0]
	d.InTouched = d.InTouched[:0]
	d.NewArcs = append(d.NewArcs[:0], accepted...)
	for _, arc := range accepted {
		if d.OutDegreeInc[arc.U] == 0 {
			d.OutTouched = append(d.OutTouched, int32(arc.U))
		}
		d.OutDegreeInc[arc.U]++
		if d.InDegreeInc[arc.V] == 0 {
			d.InTouched = append(d.InTouched, int32(arc.V))
		}
		d.InDegreeInc[arc.V]++
	}
	d.Round = round
	d.ClosureArcsRemaining = closureRemaining
}
