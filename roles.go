package gossipdisc

// This file is the root package's population surface: role-based per-node
// behavior assignment (internal/core's Population layer), the behavior
// middleware that composes fault models, the adversarial role pack, and
// the source-anonymity analyzer that watches it. A Population implements
// Process, so it threads through every runtime — the Run* helpers, all
// four session families, the sharded engine, the event runtime — without
// any engine-side configuration: pass it where a Process goes, or use
// WithRoles. Uniform populations are byte-identical to the bare process
// and dispatch without allocating; mixed runs replay bit-for-bit from
// (seed, roles) at any worker count >= 1 and any GOMAXPROCS.

import (
	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
)

// Population types (see internal/core/roles.go for the full determinism
// and mutation contracts).
type (
	// Population assigns a Process per node: a default, named role
	// classes, and per-node overrides, mutable between steps. It
	// implements Process.
	Population = core.Population
	// DirectedPopulation is the directed counterpart.
	DirectedPopulation = core.DirectedPopulation
	// Behavior is one composable middleware layer — participation gate,
	// proposal filter, relay gate — applied by Wrap / WrapDirected.
	Behavior = core.Behavior
	// Byzantine is the adversarial introducer: it funnels both of its
	// introductions toward a fixed target (or itself) instead of
	// introducing its neighbors to each other.
	Byzantine = core.Byzantine
	// ByzantineDirected is the directed Byzantine introducer.
	ByzantineDirected = core.ByzantineDirected
	// Selfish is the pull-only free-rider: it grows its own contact list
	// but never introduces third parties.
	Selfish = core.Selfish
	// Silent never initiates an action (the parked role).
	Silent = core.Silent
)

// NewPopulation returns a population of n nodes all running def. Define
// roles with DefineRole, place them with AssignRole / AssignRoleNodes,
// and override individual nodes with SetNodeProcess — all mutable
// between steps of a live session.
func NewPopulation(n int, def Process) *Population { return core.NewPopulation(n, def) }

// NewDirectedPopulation is NewPopulation for directed processes.
func NewDirectedPopulation(n int, def DirectedProcess) *DirectedPopulation {
	return core.NewDirectedPopulation(n, def)
}

// ParseRoleSpec resolves a textual role spec against a population of n
// nodes over the base (honest) process — the grammar behind the
// binaries' -roles flag: comma-separated segments, "role" for the
// default, "role=K" / "role=P%" with an optional ":lo-hi" node range,
// e.g. "honest,byzantine=5%,selfish=10:0-99". Built-in roles: honest,
// byzantine, selfish, silent, eavesdropper. A nil base defaults to Push.
func ParseRoleSpec(spec string, n int, base Process) (*Population, error) {
	return core.ParseRoleSpec(spec, n, base)
}

// ParseDirectedRoleSpec is ParseRoleSpec for directed runs (selfish has
// no directed counterpart and is rejected).
func ParseDirectedRoleSpec(spec string, n int, base DirectedProcess) (*DirectedPopulation, error) {
	return core.ParseDirectedRoleSpec(spec, n, base)
}

// ValidateRoleSpec checks a role spec for grammatical sense without a
// population size — flag validation before n is known. The empty spec is
// valid and means everyone honest.
func ValidateRoleSpec(spec string) error { return core.ValidateRoleSpec(spec) }

// Wrap composes behavior layers around an undirected process —
// Wrap(Push{}, Fail(0.1)), Wrap(Pull{}, Crash(alive)) — and layers stack:
// Wrap(p, Crash(alive), Fail(0.05), Participation(0.8)).
func Wrap(inner Process, chain ...Behavior) Process { return core.Wrap(inner, chain...) }

// WrapDirected is Wrap for directed processes.
func WrapDirected(inner DirectedProcess, chain ...Behavior) DirectedProcess {
	return core.WrapDirected(inner, chain...)
}

// Fail returns the behavior layer dropping each proposal independently
// with probability prob.
func Fail(prob float64) Behavior { return core.Fail(prob) }

// Participation returns the behavior layer gating each node's per-round
// participation with probability q.
func Participation(q float64) Behavior { return core.Participation(q) }

// Crash returns the behavior layer for a fail-stop liveness mask: dead
// nodes do not act, are not proposed to, and (for relay-aware processes
// such as Pull) refuse to relay walks.
func Crash(alive []bool) Behavior { return core.Crash(alive) }

// WithRoles hands an undirected session its population — shorthand for
// WithProcess(pop) that reads as what it is. The population stays
// mutable between steps: retune roles via pop.SetRoleProcess or override
// nodes via pop.SetNodeProcess mid-run, deterministically at any worker
// count.
func WithRoles(pop *Population) SessionOption {
	return func(o *sessionOptions) { o.proc = pop }
}

// WithDirectedRoles is WithRoles for directed sessions.
func WithDirectedRoles(pop *DirectedPopulation) SessionOption {
	return func(o *sessionOptions) { o.dproc = pop }
}

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
