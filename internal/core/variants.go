package core

import (
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file implements the robustness variants sketched in the paper's
// conclusion (Section 6): "variants of the processes that take into account
// failures associated with forming connections, the joining and leaving of
// nodes, or having only a subset of nodes to participate in forming
// connections."
//
// The variants are one composable middleware chain — see behavior.go
// (Behavior, Fail, Participation, Crash, Wrap, WrapDirected). Two wrapper
// structs remain beside it, Crashed and CrashedPull: the churn runtime's
// processes, kept for their allocation-free Acts and their block forms.

// Crashed wraps a process with a static liveness mask, modeling fail-stop
// crashes: dead nodes take no action, and any proposal naming a dead
// endpoint is wasted (the dead node does not respond). Stale neighbor-table
// entries pointing at dead nodes still get sampled and burn rounds — the
// realistic cost of crashes.
//
// Endpoint filtering is exact for push (the introduced pair must be alive;
// the introducer acted, so it is alive). For pull the *relay* node's
// liveness also matters — this wrapper deliberately does NOT gate relays
// (its historical draw sequence); use CrashedPull, or Wrap with Crash,
// which gates the relay on any relay-aware walk.
//
// Alive is indexed by node id and must cover the graph.
//
// Wrap(inner, Crash(alive)) is the chain's form of the same mask, and the
// one to compose with other behaviors. Crashed stays beside it because it is
// the churn runtime's process, once per member per round: over Push it acts
// a block at a time (ActRange, the masked RandomNeighborPairs) and its Act
// allocates nothing (TestCrashedPushActDoesNotAllocate), where the chain
// acts node by node and builds a closure per Act; because cmd/bench's layer
// ladder names Crashed{Inner:, Alive:}; and because the chain gates relays
// on relay-aware inners, so Wrap(Pull{}, Crash(alive)) matches CrashedPull,
// not Crashed{Inner: Pull{}}.
type Crashed struct {
	Inner Process
	Alive []bool
}

// Name implements Process. The suffix encodes the mask's alive fraction at
// call time — "push+crash0.75" — so experiment output distinguishes crash
// severities; a nil or empty mask yields the bare "push+crash".
func (c Crashed) Name() string { return c.Inner.Name() + "+" + crashLabel(c.Alive) }

// Act implements Process.
func (c Crashed) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	if !c.Alive[u] {
		return
	}
	if push, ok := c.Inner.(Push); ok {
		// The churn runtime's process, once per member per round. Called on
		// the concrete type, Push.Act inlines and this literal stays on the
		// stack; the one below escapes through the interface call and costs
		// a heap allocation per activation.
		push.Act(g, u, r, func(a, b int) {
			if c.Alive[a] && c.Alive[b] {
				propose(a, b)
			}
		})
		return
	}
	c.Inner.Act(g, u, r, func(a, b int) {
		if c.Alive[a] && c.Alive[b] {
			propose(a, b)
		}
	})
}

// ActRange performs Act for every node of [lo, hi) in increasing order on
// the one stream r, appending the proposals to edges — the same proposals
// in the same order, and r left in the same state, as per-node Act
// (TestCrashedActRangeMatchesAct). Over Push it is Push.ActRange with the
// mask handed to the graph, so dead nodes make no draw; over any other
// inner it is the loop over Act, which stays the definition.
func (c Crashed) ActRange(g *graph.Undirected, lo, hi int, r *rng.Rand, edges []graph.Edge) []graph.Edge {
	if _, ok := c.Inner.(Push); ok {
		return pushRange(g, lo, hi, c.Alive, r, edges)
	}
	return c.actEach(g, lo, hi, r, edges)
}

// actEach is Crashed.ActRange's per-node loop. It is a function of its own
// because its propose closure, escaping through the inner's Act, moves the
// slice it appends to onto the heap — here, not in the block path.
func (c Crashed) actEach(g *graph.Undirected, lo, hi int, r *rng.Rand, edges []graph.Edge) []graph.Edge {
	propose := func(a, b int) { edges = append(edges, graph.Edge{U: a, V: b}) }
	for u := lo; u < hi; u++ {
		c.Act(g, u, r, propose)
	}
	return edges
}

// CrashedPull is the two-hop walk under fail-stop crashes: a dead node
// never initiates a pull, a pull whose relay v is dead goes unanswered, and
// a pulled contact w that is dead is useless.
//
// Wrap(Pull{}, Crash(alive)) is draw-for-draw identical (the chain's relay
// gate reproduces the unanswered dead relay); CrashedPull stays as the pull
// process of churn sessions: its Act keeps its two closures on the stack,
// and its ActRange walks a block at a time.
type CrashedPull struct {
	Alive []bool
}

// Name implements Process, encoding the alive fraction like Crashed.
func (c CrashedPull) Name() string { return "pull+" + crashLabel(c.Alive) }

// Act implements Process.
func (c CrashedPull) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	if !c.Alive[u] {
		return
	}
	Pull{}.ActRelay(g, u, r, func(v int) bool { return c.Alive[v] }, func(a, b int) {
		if c.Alive[b] { // a == u, which acted, so it is alive
			propose(a, b)
		}
	})
}

// ActRange is Pull.ActRange with the mask handed to the graph's walks: Act
// for every node of [lo, hi) in increasing order on the one stream r, same
// proposals, same order, same final r (TestCrashedPullActRangeMatchesAct).
func (c CrashedPull) ActRange(g *graph.Undirected, lo, hi int, r *rng.Rand, edges []graph.Edge) []graph.Edge {
	return pullRange(g, lo, hi, c.Alive, r, edges)
}

// PushPull alternates both actions at every node every round, the natural
// combined protocol (each node both introduces two of its neighbors and
// performs a two-hop walk). Used by ablation experiments.
type PushPull struct{}

// Name implements Process.
func (PushPull) Name() string { return "push-pull" }

// Act implements Process.
func (PushPull) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	Push{}.Act(g, u, r, propose)
	Pull{}.Act(g, u, r, propose)
}

var (
	_ Process = Crashed{}
	_ Process = CrashedPull{}
	_ Process = PushPull{}
)
