package gossipdisc

// This file is the root package's population surface: role-based per-node
// behavior assignment (internal/core's Population layer), the behavior
// middleware that composes fault models, and the source-anonymity analyzer
// that watches the adversarial roles. A Population implements Process, so
// it runs wherever a Process goes — Run, NewSession, NewEventSession —
// without any engine-side configuration: pass it with WithProcess. Uniform
// populations are byte-identical to the bare process and dispatch without
// allocating; mixed runs replay bit-for-bit from (seed, roles) at any
// GOMAXPROCS.

import (
	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
)

// Population assigns a Process per node: a default, named role classes,
// and per-node overrides, mutable between steps of a live session (retune
// a role with SetRoleProcess, a node with SetNodeProcess). It implements
// Process. See internal/core/roles.go for the full determinism and
// mutation contracts.
type Population = core.Population

// ParseRoleSpec resolves a textual role spec against a population of n
// nodes over the base (honest) process — the grammar behind the
// binaries' -roles flag: comma-separated segments, "role" for the
// default, "role=K" / "role=P%" with an optional ":lo-hi" node range,
// e.g. "honest,byzantine=5%,selfish=10:0-99". Built-in roles: honest,
// byzantine, selfish, silent, eavesdropper. A nil base defaults to Push.
func ParseRoleSpec(spec string, n int, base Process) (*Population, error) {
	return core.ParseRoleSpec(spec, n, base)
}

// Behavior is one composable middleware layer — participation gate,
// proposal filter, relay gate — applied by Wrap.
type Behavior = core.Behavior

// Wrap composes behavior layers around a process — Wrap(Push{},
// Crash(alive)) is push among the live nodes only — and layers stack:
// Wrap(p, Crash(alive), Fail(0.05), Participation(0.8)).
func Wrap(inner Process, chain ...Behavior) Process { return core.Wrap(inner, chain...) }

// Fail returns the behavior layer dropping each proposal independently
// with probability prob.
func Fail(prob float64) Behavior { return core.Fail(prob) }

// Participation returns the behavior layer gating each node's per-round
// participation with probability q.
func Participation(q float64) Behavior { return core.Participation(q) }

// Crash returns the behavior layer for a fail-stop liveness mask: dead
// nodes do not act, are not proposed to, and (for relay-aware processes
// such as Pull) refuse to relay walks. Share the mask with
// Session.TrackMembership, and RemoveNode / InsertNode move nodes in and
// out of it.
func Crash(alive []bool) Behavior { return core.Crash(alive) }

// Anonymity is the source-anonymity analyzer of the adversarial pack: it
// replays the rumor cascade from the delta stream and maintains an
// observer coalition's posterior over the rumor's entry node (entropy,
// source probability, source rank). Subscribe it like any analyzer and
// feed its gauges to Prometheus via PrometheusExporter.AttachAnonymity.
type Anonymity = analyze.Anonymity

// NewAnonymity returns an anonymity analyzer tracking a rumor entering
// at source against the given observer coalition (typically
// pop.Nodes("eavesdropper")).
func NewAnonymity(source int, coalition []int) *Anonymity {
	return analyze.NewAnonymity(source, coalition)
}
