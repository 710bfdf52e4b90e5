package core

import (
	"fmt"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file implements the robustness variants sketched in the paper's
// conclusion (Section 6): "variants of the processes that take into account
// failures associated with forming connections, the joining and leaving of
// nodes, or having only a subset of nodes to participate in forming
// connections."
//
// The variants are now one composable middleware chain — see behavior.go
// (Behavior, Fail, Participation, Crash, Wrap, WrapDirected). The structs
// below predate the chain and survive as thin deprecated aliases with their
// exact historical draw sequences, so existing callers and pinned goldens
// are untouched.

// Faulty wraps a process so that every proposed connection independently
// fails (is dropped) with probability FailProb. It models flaky links or
// rejected introductions.
//
// Deprecated: use Wrap(inner, Fail(prob)), which is draw-for-draw
// identical and composes with the other behaviors.
type Faulty struct {
	Inner    Process
	FailProb float64
}

// Name implements Process.
func (f Faulty) Name() string { return fmt.Sprintf("%s+fail%.2f", f.Inner.Name(), f.FailProb) }

// Act implements Process.
func (f Faulty) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	f.Inner.Act(g, u, r, failFilter(r, f.FailProb, propose))
}

// failFilter is the proposal gate shared by Faulty and FaultyDirected —
// the Fail behavior's filter, pre-bound to one node's stream. Each proposal
// is dropped independently with probability prob, consuming one Bernoulli
// draw per proposal.
func failFilter(r *rng.Rand, prob float64, emit func(a, b int)) func(a, b int) {
	return func(a, b int) {
		if !r.Bernoulli(prob) {
			emit(a, b)
		}
	}
}

// Partial wraps a process so that each node participates in a given round
// only with probability Participation; non-participants take no action that
// round (they can still be discovered by others).
//
// Deprecated: use Wrap(inner, Participation(q)).
type Partial struct {
	Inner         Process
	Participation float64
}

// Name implements Process.
func (p Partial) Name() string {
	return fmt.Sprintf("%s+part%.2f", p.Inner.Name(), p.Participation)
}

// Act implements Process.
func (p Partial) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	if !r.Bernoulli(p.Participation) {
		return
	}
	p.Inner.Act(g, u, r, propose)
}

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
// Deprecated: use Wrap(inner, Crash(alive)). Note the chain additionally
// gates relays on relay-aware inners, so Wrap(Pull{}, Crash(alive)) matches
// CrashedPull, not Crashed{Inner: Pull{}}.
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

// CrashedPull is the two-hop walk under fail-stop crashes: a dead node
// never initiates a pull, a pull whose relay v is dead goes unanswered, and
// a pulled contact w that is dead is useless.
//
// Deprecated: use Wrap(Pull{}, Crash(alive)), which is draw-for-draw
// identical (the chain's relay gate reproduces the unanswered dead relay).
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

// FaultyDirected is the directed analogue of Faulty.
//
// Deprecated: use WrapDirected(inner, Fail(prob)) — the same Fail behavior
// serves both directions.
type FaultyDirected struct {
	Inner    DirectedProcess
	FailProb float64
}

// Name implements DirectedProcess.
func (f FaultyDirected) Name() string {
	return fmt.Sprintf("%s+fail%.2f", f.Inner.Name(), f.FailProb)
}

// Act implements DirectedProcess.
func (f FaultyDirected) Act(g *graph.Directed, u int, r *rng.Rand, propose func(a, b int)) {
	f.Inner.Act(g, u, r, failFilter(r, f.FailProb, propose))
}

var (
	_ Process         = Faulty{}
	_ Process         = Partial{}
	_ Process         = Crashed{}
	_ Process         = CrashedPull{}
	_ Process         = PushPull{}
	_ DirectedProcess = FaultyDirected{}
)
