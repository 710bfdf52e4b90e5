package core

import (
	"fmt"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file holds the adversarial processes of the roles pack (ROADMAP
// "Adversarial + privacy scenario pack"): Byzantine introducers that
// propose targeted edges instead of honest introductions, and selfish
// pull-only free-riders. They are ordinary Processes, so they slot into a
// Population like any honest behavior and run on every engine unchanged.

// Byzantine is the adversarial introducer: it performs push-shaped draws
// (one RandomNeighborPair per round, so replacing an honest push keeps the
// node's draw count recognizable) but instead of introducing its two
// sampled neighbors to each other, it funnels both introductions toward a
// fixed target — every round it acts, the contact graph is tilted toward a
// hub the adversary controls rather than toward completion. The honest
// v–w edge is never proposed, which is what degrades convergence as the
// Byzantine fraction grows (experiment E21).
//
// Target < 0 (the role registry's default) funnels toward the acting node
// itself — self-promotion; Target >= 0 funnels every Byzantine node's
// introductions toward one global hub — the eclipse-style coalition.
type Byzantine struct {
	Target int
}

// Name implements Process.
func (z Byzantine) Name() string {
	if z.Target < 0 {
		return "byzantine"
	}
	return fmt.Sprintf("byzantine@%d", z.Target)
}

// Act implements Process.
func (z Byzantine) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	v, w := g.RandomNeighborPair(u, r)
	if v < 0 {
		return
	}
	t := z.Target
	if t < 0 {
		t = u
	}
	propose(v, t)
	if w != v {
		propose(w, t)
	}
}

// ByzantineDirected is the directed Byzantine introducer: instead of the
// honest two-hop walk it proposes the arc v → target for its sampled
// out-neighbor v, pulling the arc fabric toward the target hub.
type ByzantineDirected struct {
	Target int
}

// Name implements DirectedProcess.
func (z ByzantineDirected) Name() string {
	if z.Target < 0 {
		return "byzantine"
	}
	return fmt.Sprintf("byzantine@%d", z.Target)
}

// Act implements DirectedProcess.
func (z ByzantineDirected) Act(g *graph.Directed, u int, r *rng.Rand, propose func(a, b int)) {
	v := g.RandomOutNeighbor(u, r)
	if v < 0 {
		return
	}
	t := z.Target
	if t < 0 {
		t = u
	}
	propose(v, t)
}

// Selfish is the pull-only free-rider: it takes the two-hop walk to grow
// its own contact list but never introduces third parties — in a push
// population it contributes nothing to anyone else's discovery (the edges
// it creates are all incident to itself). It still answers relays honestly
// (refusing is Behavior.Relay's job, not the process's).
type Selfish struct{}

// Name implements Process.
func (Selfish) Name() string { return "selfish" }

// Act implements Process.
func (Selfish) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	Pull{}.Act(g, u, r, propose)
}

// ActRelay implements RelayProcess, so behavior chains can gate the
// free-rider's relay exactly as they gate Pull's.
func (Selfish) ActRelay(g *graph.Undirected, u int, r *rng.Rand, relay func(v int) bool, propose func(a, b int)) {
	Pull{}.ActRelay(g, u, r, relay, propose)
}

// SilentOn is the parked node: it never initiates an action but can still
// be discovered and still answers relays. It is the "crashed" role of a
// population (distinct from the Crash behavior, whose mask also filters
// proposals naming the node).
type SilentOn[G any] struct{}

// Silent is the undirected parked node, SilentDirected the directed one.
type (
	Silent         = SilentOn[*graph.Undirected]
	SilentDirected = SilentOn[*graph.Directed]
)

// Name implements ProcessOn.
func (SilentOn[G]) Name() string { return "silent" }

// Act implements ProcessOn.
func (SilentOn[G]) Act(g G, u int, r *rng.Rand, propose func(a, b int)) {}

var (
	_ Process         = Byzantine{}
	_ RelayProcess    = Selfish{}
	_ Process         = Silent{}
	_ DirectedProcess = ByzantineDirected{}
	_ DirectedProcess = SilentDirected{}
)
