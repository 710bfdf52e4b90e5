package core

import (
	"fmt"
	"strings"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file is the composable middleware layer behind the robustness
// variants: one Behavior type shared by undirected and directed processes,
// composed with Wrap / WrapDirected. The paper's Section 6 variants —
// connection failures, partial participation, fail-stop crashes — are each
// one Behavior (Fail, Participation, Crash) instead of one wrapper struct
// per (variant, direction) pair. Crashed and CrashedPull in variants.go are the
// two wrapper structs that remain; their comments say why.
//
// Composition rules (the determinism contract the equivalence suites pin):
//
//   - Participation gates run in chain order; the first refusing layer ends
//     the node's action for the round, after consuming exactly the
//     randomness its own gate drew.
//   - Proposal filters apply in chain order: the inner process's proposals
//     pass chain[0].Propose first, then chain[1].Propose, ... then the
//     engine's propose. A filter may drop or rewrite, and may draw
//     randomness (drawn on the node's own stream, in proposal order).
//   - Relay gates apply only when the innermost process is relay-aware
//     (Pull, DirectedTwoHop — anything implementing RelayProcess /
//     DirectedRelayProcess): the walk aborts at a refused relay without
//     drawing the second hop, the CrashedPull semantics. Non-walk processes
//     ignore relay gates.
//
// All behavior callbacks draw randomness only from the *r they are handed —
// the acting node's own stream — so wrapped runs stay bit-replayable at any
// GOMAXPROCS, exactly like unwrapped ones.

// Behavior is one composable per-node middleware layer. Any subset of the
// hooks may be set; nil hooks are skipped. The same Behavior value works on
// undirected and directed processes (the hooks never see the graph).
type Behavior struct {
	// Label annotates the wrapped process's Name, e.g. "fail0.30" — the
	// wrapped name is inner.Name() + "+" + Label for each labeled layer.
	Label string
	// Participate, if non-nil, reports whether node u takes its action this
	// round. Refusing consumes only the randomness the gate itself drew.
	Participate func(u int, r *rng.Rand) bool
	// Propose, if non-nil, filters (or rewrites) each proposal: call
	// emit to let the — possibly altered — proposal through, or return
	// without calling it to drop.
	Propose func(a, b int, r *rng.Rand, emit func(a, b int))
	// Relay, if non-nil, reports whether node v answers when it is the
	// middle hop of a relay-aware walk. Consulted only for RelayProcess /
	// DirectedRelayProcess inners.
	Relay func(v int) bool
}

// Fail is the connection-failure behavior: every proposal is independently
// dropped with probability prob, consuming one Bernoulli draw per proposal —
// one implementation for both directions.
func Fail(prob float64) Behavior {
	return Behavior{
		Label: fmt.Sprintf("fail%.2f", prob),
		Propose: func(a, b int, r *rng.Rand, emit func(a, b int)) {
			if !r.Bernoulli(prob) {
				emit(a, b)
			}
		},
	}
}

// Participation is the partial-participation behavior: each node acts in a
// given round only with probability q (one Bernoulli draw per node per
// round); non-participants can still be discovered by others.
func Participation(q float64) Behavior {
	return Behavior{
		Label: fmt.Sprintf("part%.2f", q),
		Participate: func(u int, r *rng.Rand) bool {
			return r.Bernoulli(q)
		},
	}
}

// Crash is the fail-stop behavior over a shared liveness mask: dead nodes
// never act, proposals naming a dead endpoint are wasted, and — when the
// inner process is relay-aware — a walk through a dead relay goes
// unanswered without drawing its second hop (the CrashedPull semantics,
// now available to any walk). The mask is shared, not copied: flip entries
// between steps to crash or revive nodes mid-run.
func Crash(alive []bool) Behavior {
	return Behavior{
		Label: crashLabel(alive),
		Participate: func(u int, r *rng.Rand) bool {
			return alive[u]
		},
		Propose: func(a, b int, r *rng.Rand, emit func(a, b int)) {
			if alive[a] && alive[b] {
				emit(a, b)
			}
		},
		Relay: func(v int) bool { return alive[v] },
	}
}

// crashLabel encodes the mask's alive fraction at construction time, e.g.
// "crash0.75" for a mask with three quarters of the nodes alive; an empty
// or nil mask yields the bare "crash".
func crashLabel(alive []bool) string {
	if len(alive) == 0 {
		return "crash"
	}
	up := 0
	for _, a := range alive {
		if a {
			up++
		}
	}
	return fmt.Sprintf("crash%.2f", float64(up)/float64(len(alive)))
}

// RelayProcessOn is implemented by processes whose action is a relay walk
// (the two-hop pull, the directed two-hop walk): ActRelay is Act with a
// liveness gate on the middle hop — a refused relay ends the walk without
// drawing the second hop. Wrap / WrapDirected use it to apply
// Behavior.Relay hooks.
type RelayProcessOn[G any] interface {
	ProcessOn[G]
	ActRelay(g G, u int, r *rng.Rand, relay func(v int) bool, propose func(a, b int))
}

// RelayProcess is the undirected RelayProcessOn.
type RelayProcess = RelayProcessOn[*graph.Undirected]

// DirectedRelayProcess is the directed RelayProcessOn.
type DirectedRelayProcess = RelayProcessOn[*graph.Directed]

// wrappedName joins the inner name with the chain's labels:
// "pull+crash0.75", "push+fail0.30+part0.50".
func wrappedName(inner string, chain []Behavior) string {
	var b strings.Builder
	b.WriteString(inner)
	for _, layer := range chain {
		if layer.Label != "" {
			b.WriteByte('+')
			b.WriteString(layer.Label)
		}
	}
	return b.String()
}

// combinedRelay folds the chain's non-nil Relay hooks into one gate, or nil
// when no layer gates relays.
func combinedRelay(chain []Behavior) func(v int) bool {
	var gates []func(v int) bool
	for _, layer := range chain {
		if layer.Relay != nil {
			gates = append(gates, layer.Relay)
		}
	}
	switch len(gates) {
	case 0:
		return nil
	case 1:
		return gates[0]
	}
	return func(v int) bool {
		for _, ok := range gates {
			if !ok(v) {
				return false
			}
		}
		return true
	}
}

// Wrap composes a behavior chain over an undirected process. With an empty
// chain it returns inner unchanged; otherwise the wrapped process applies
// participation gates in chain order, proposal filters in chain order, and
// — when inner implements RelayProcess and any layer sets Relay — the
// combined relay gate on the walk's middle hop.
func Wrap(inner Process, chain ...Behavior) Process { return wrap(inner, chain) }

// WrapDirected composes the same behavior chain over a directed process.
func WrapDirected(inner DirectedProcess, chain ...Behavior) DirectedProcess {
	return wrap(inner, chain)
}

func wrap[G any](inner ProcessOn[G], chain []Behavior) ProcessOn[G] {
	if len(chain) == 0 {
		return inner
	}
	w := &wrapped[G]{
		inner: inner,
		chain: append([]Behavior(nil), chain...),
	}
	w.name = wrappedName(inner.Name(), w.chain)
	if relay := combinedRelay(w.chain); relay != nil {
		if rp, ok := inner.(RelayProcessOn[G]); ok {
			w.relayInner = rp
			w.relay = relay
		}
	}
	return w
}

// wrapped is the behavior-chain process built by Wrap / WrapDirected.
type wrapped[G any] struct {
	inner      ProcessOn[G]
	chain      []Behavior
	name       string
	relayInner RelayProcessOn[G] // non-nil iff inner is relay-aware and the chain gates relays
	relay      func(v int) bool  // the combined relay gate, set with relayInner
}

// Name implements ProcessOn.
func (w *wrapped[G]) Name() string { return w.name }

// Act implements ProcessOn.
func (w *wrapped[G]) Act(g G, u int, r *rng.Rand, propose func(a, b int)) {
	for i := range w.chain {
		if gate := w.chain[i].Participate; gate != nil && !gate(u, r) {
			return
		}
	}
	emit := chainPropose(w.chain, r, propose)
	if w.relayInner != nil {
		w.relayInner.ActRelay(g, u, r, w.relay, emit)
		return
	}
	w.inner.Act(g, u, r, emit)
}

// chainPropose builds the proposal path through the chain's filters:
// proposals traverse chain[0].Propose first, then chain[1].Propose, ...,
// then sink. Layers without a Propose hook are skipped; a chain with none
// returns sink unchanged.
func chainPropose(chain []Behavior, r *rng.Rand, sink func(a, b int)) func(a, b int) {
	emit := sink
	for i := len(chain) - 1; i >= 0; i-- {
		if f := chain[i].Propose; f != nil {
			next := emit
			emit = func(a, b int) { f(a, b, r, next) }
		}
	}
	return emit
}

var (
	_ RelayProcess         = Pull{}
	_ DirectedRelayProcess = DirectedTwoHop{}
)
