// Package core implements the gossip-based discovery processes of
// "Discovery through Gossip" (Haeupler, Pandurangan, Peleg, Rajaraman, Sun;
// SPAA 2012): push discovery (triangulation), pull discovery (the two-hop
// walk), and the directed two-hop walk, plus the robustness variants the
// paper's conclusion proposes (connection failures, partial participation,
// node crashes).
//
// A process is defined by the action a single node takes in one synchronous
// round, reading the current graph and *proposing* edges. How proposals are
// committed — all together at the end of the round (the paper's G_t
// semantics) or eagerly — is the round engine's concern (package sim), which
// keeps the sampling semantics here exactly as the paper states them.
package core

import (
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// ProcessOn is the per-node action of a discovery process over the graph
// type G. The layers above the graph — behavior chains, populations, the
// round engines — never call a method on G, so they are written once over
// it; Process and DirectedProcess are its two instantiations.
//
// Act performs node u's action for one round: it reads g (never mutates it)
// and calls propose for each edge the action creates — for a directed
// process, propose(a, b) proposes the arc a → b. Proposing a self-loop or an
// existing edge is allowed and has no effect when committed.
type ProcessOn[G any] interface {
	// Name identifies the process in experiment output, e.g. "push".
	Name() string
	// Act executes node u's round action on the (read-only) graph g.
	Act(g G, u int, r *rng.Rand, propose func(a, b int))
}

// Process is the per-node action of an undirected discovery process.
type Process = ProcessOn[*graph.Undirected]

// DirectedProcess is the per-node action of a directed discovery process.
type DirectedProcess = ProcessOn[*graph.Directed]

// Push is the triangulation (push discovery) process: each round every node
// u draws two neighbors v, w independently and uniformly at random from
// N(u) — with replacement, per Lemma 3's 1/d(w)² accounting — and introduces
// them to each other, proposing the edge {v, w}.
//
// The process is completely local: u needs no two-hop information.
type Push struct{}

// Name implements Process.
func (Push) Name() string { return "push" }

// Act implements Process.
func (Push) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	v, w := g.RandomNeighborPair(u, r)
	if v >= 0 && v != w {
		propose(v, w)
	}
}

// actBlock is how many consecutive nodes an ActRange hands the graph at a
// time: Push draws for that many before it reads their neighbor lists, the
// walks take that many two-hop walks per call. Throughput is flat from 16
// to 256 (DESIGN.md "The round in blocks"), so 32 keeps the buffers at
// 256 bytes of stack for Push, 128 for a walk.
const actBlock = 32

// ActRange performs Act for every node of [lo, hi) in increasing order on
// the one stream r, appending the proposals to edges and returning the
// grown slice — the same proposals in the same order, and r left in the
// same state, as hi-lo calls of Act whose propose appends {a, b}
// (TestPushActRangeMatchesAct). Act stays the definition; this is the form
// the synchronous round engines call on a bare Push, because a block at a
// time the neighbor-list reads of different nodes overlap (see
// graph.Undirected.RandomNeighborPairs). It panics like Act on a node
// outside the graph.
func (Push) ActRange(g *graph.Undirected, lo, hi int, r *rng.Rand, edges []graph.Edge) []graph.Edge {
	return pushRange(g, lo, hi, nil, r, edges)
}

// pushRange is Push.ActRange under a liveness mask, nil for none: a dead
// node makes no draw, and a pair is kept only if both its ends are alive
// (Crashed.ActRange).
func pushRange(g *graph.Undirected, lo, hi int, alive []bool, r *rng.Rand, edges []graph.Edge) []graph.Edge {
	var vs, ws [actBlock]int32
	for ; lo < hi; lo += actBlock {
		b := min(actBlock, hi-lo)
		g.RandomNeighborPairs(lo, alive, r, vs[:b], ws[:b])
		for k, v := range vs[:b] {
			if w := ws[k]; v >= 0 && v != w && (alive == nil || alive[v] && alive[w]) {
				edges = append(edges, graph.Edge{U: int(v), V: int(w)})
			}
		}
	}
	return edges
}

// Pull is the two-hop walk (pull discovery) process: each round every node u
// contacts a uniform neighbor v, receives the identity of a uniform neighbor
// w of v, and proposes the edge {u, w}. If w == u (the walk returned), no
// edge is created.
type Pull struct{}

// Name implements Process.
func (Pull) Name() string { return "pull" }

// Act implements Process.
func (p Pull) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	p.ActRelay(g, u, r, relayAll, propose)
}

// ActRelay implements RelayProcess: the two-hop walk with a liveness gate
// on the relay v. A refused relay never answers — the walk ends there,
// without drawing the second hop (the CrashedPull semantics, available to
// any behavior chain via Behavior.Relay).
func (Pull) ActRelay(g *graph.Undirected, u int, r *rng.Rand, relay func(v int) bool, propose func(a, b int)) {
	v := g.RandomNeighbor(u, r)
	if v < 0 || !relay(v) {
		return
	}
	w := g.RandomNeighbor(v, r)
	if w >= 0 && w != u {
		propose(u, w)
	}
}

// ActRange performs Act for every node of [lo, hi) in increasing order on
// the one stream r, appending the proposals to edges and returning the
// grown slice — the same proposals in the same order, and r left in the
// same state, as hi-lo calls of Act whose propose appends {a, b}
// (TestPullActRangeMatchesAct). Act stays the definition; this is the form
// the synchronous round engines call on a bare Pull, a block of walks per
// call into the graph (graph.Undirected.TwoHopWalks) in place of Act →
// ActRelay → two RandomNeighbor → relay → propose per node. It panics like
// Act on a node outside the graph.
func (Pull) ActRange(g *graph.Undirected, lo, hi int, r *rng.Rand, edges []graph.Edge) []graph.Edge {
	return pullRange(g, lo, hi, nil, r, edges)
}

// pullRange is Pull.ActRange under a liveness mask, nil for none: a dead
// node makes no draw, a dead relay no second draw, and a walk is kept only
// if the node it reached is alive (CrashedPull.ActRange).
func pullRange(g *graph.Undirected, lo, hi int, alive []bool, r *rng.Rand, edges []graph.Edge) []graph.Edge {
	var ws [actBlock]int32
	for ; lo < hi; lo += actBlock {
		b := min(actBlock, hi-lo)
		g.TwoHopWalks(lo, alive, r, ws[:b])
		for k, w := range ws[:b] {
			if u := lo + k; w >= 0 && int(w) != u && (alive == nil || alive[w]) {
				edges = append(edges, graph.Edge{U: u, V: int(w)})
			}
		}
	}
	return edges
}

// relayAll is the ungated relay: every middle hop answers. Package-level so
// the un-wrapped walks pay no per-call closure.
func relayAll(int) bool { return true }

// DirectedTwoHop is the two-hop walk on directed graphs (Section 5): each
// round every node u takes a two-hop directed random walk u → v → w
// (v uniform over u's out-neighbors, w uniform over v's out-neighbors) and
// proposes the arc u → w. Nodes with no out-neighbors, and walks whose
// middle node has no out-neighbors, do nothing.
type DirectedTwoHop struct{}

// Name implements DirectedProcess.
func (DirectedTwoHop) Name() string { return "directed-two-hop" }

// Act implements DirectedProcess.
func (p DirectedTwoHop) Act(g *graph.Directed, u int, r *rng.Rand, propose func(a, b int)) {
	p.ActRelay(g, u, r, relayAll, propose)
}

// ActRelay implements DirectedRelayProcess: the directed walk with a
// liveness gate on the middle node v.
func (DirectedTwoHop) ActRelay(g *graph.Directed, u int, r *rng.Rand, relay func(v int) bool, propose func(a, b int)) {
	v := g.RandomOutNeighbor(u, r)
	if v < 0 || !relay(v) {
		return
	}
	w := g.RandomOutNeighbor(v, r)
	if w >= 0 && w != u {
		propose(u, w)
	}
}

// ActRange is Pull.ActRange for the directed walk: Act for every node of
// [lo, hi) in increasing order on the one stream r, the proposed arcs
// u → w appended to arcs — same arcs, same order, same final r as per-node
// Act (TestDirectedTwoHopActRangeMatchesAct), a block of walks per
// graph.Directed.TwoHopWalks call. It panics like Act on a node outside the
// graph.
func (DirectedTwoHop) ActRange(g *graph.Directed, lo, hi int, r *rng.Rand, arcs []graph.Arc) []graph.Arc {
	var ws [actBlock]int32
	for ; lo < hi; lo += actBlock {
		b := min(actBlock, hi-lo)
		g.TwoHopWalks(lo, r, ws[:b])
		for k, w := range ws[:b] {
			if u := lo + k; w >= 0 && int(w) != u {
				arcs = append(arcs, graph.Arc{U: u, V: int(w)})
			}
		}
	}
	return arcs
}

// compile-time interface checks
var (
	_ Process         = Push{}
	_ Process         = Pull{}
	_ DirectedProcess = DirectedTwoHop{}
)
