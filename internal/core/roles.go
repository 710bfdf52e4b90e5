package core

import (
	"fmt"
	"strings"

	"gossipdisc/internal/classmap"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// A PopulationOn assigns every node its own behavior: node u's round action
// dispatches through the Process its *role* selects, so heterogeneous
// populations — 5% Byzantine, 10% selfish, the rest honest — run in one
// session on any engine. Its bookkeeping is a classmap.Table, the one under
// eventsim's RateMap too: named role classes plus per-node overrides,
// mutable between steps, resolvable from a textual spec (ParseRoleSpec).
//
// A population implements ProcessOn itself, which is how it threads through
// the runtimes unchanged: the synchronous round and the event-driven
// runtime call Act(g, u, r, propose) per node, and the Population forwards
// to node u's own process on node u's existing stream. Dense-phase rounds
// never call Act (sim.Config.DensePhase samples missing edges directly), so
// roles stop applying once the phase flips. Determinism is inherited
// wholesale — each member process draws only from the *r it is handed, so
// runs are bit-replayable from (seed, roles) at any GOMAXPROCS, and a
// population whose every node runs the default process performs exactly
// the legacy single-Process call sequence (byte-identical Results and delta
// streams; the equivalence suites in internal/sim and internal/eventsim pin
// this).
//
// Mutate a Population only between session steps (AssignRole /
// SetNodeProcess / SetRoleProcess): the table is read throughout a step.
//
// Nodes beyond the population's size (members admitted later via
// Session.InsertNode) run the default process. The table is a named field,
// not embedded, so its methods stay off the population's method set.
type PopulationOn[G any] struct {
	table classmap.Table[ProcessOn[G]]
}

// Population is the undirected PopulationOn.
type Population = PopulationOn[*graph.Undirected]

// DirectedPopulation is the directed PopulationOn: per-node dispatch over
// DirectedProcess behaviors, same bookkeeping, same determinism contract.
type DirectedPopulation = PopulationOn[*graph.Directed]

// NewPopulation returns the uniform population: every one of the n nodes
// runs the default process def. It panics on negative n or a nil default.
func NewPopulation(n int, def Process) *Population {
	return newPopulation("Population", n, def)
}

// NewDirectedPopulation returns the uniform directed population.
func NewDirectedPopulation(n int, def DirectedProcess) *DirectedPopulation {
	return newPopulation("DirectedPopulation", n, def)
}

func newPopulation[G any](kind string, n int, def ProcessOn[G]) *PopulationOn[G] {
	p := &PopulationOn[G]{table: classmap.New("core", kind, n, def)}
	if def == nil {
		p.table.Panicf("New"+kind, "with nil default process")
	}
	return p
}

// N returns the number of nodes the population covers.
func (p *PopulationOn[G]) N() int { return len(p.table.Values()) }

// Uniform reports whether every node currently runs the default process —
// the populations whose runs are byte-identical to the plain single-Process
// path.
func (p *PopulationOn[G]) Uniform() bool { return p.table.Uniform() }

// Name implements ProcessOn: the default process's name for a uniform
// population (so experiment output is unchanged), else the default name
// plus a role census, e.g. "push+roles[byzantine:3,selfish:6,override:2]"
// — roles in definition order, zero-member roles skipped.
func (p *PopulationOn[G]) Name() string {
	name := p.table.Default().Name()
	if p.table.Uniform() {
		return name
	}
	counts, overrides := p.table.Census()
	var census []string
	for c, role := range p.table.Names() {
		if counts[c] > 0 {
			census = append(census, fmt.Sprintf("%s:%d", role, counts[c]))
		}
	}
	if overrides > 0 {
		census = append(census, fmt.Sprintf("override:%d", overrides))
	}
	return name + "+roles[" + strings.Join(census, ",") + "]"
}

// Act implements ProcessOn: node u's action is its own process's action, on
// u's existing stream — the whole dispatch is one slice index, so uniform
// populations add zero allocations to the hot step path.
func (p *PopulationOn[G]) Act(g G, u int, r *rng.Rand, propose func(a, b int)) {
	p.ProcessOf(u).Act(g, u, r, propose)
}

// DefineRole registers a named role class running proc. It panics on an
// empty or duplicate name or a nil process.
func (p *PopulationOn[G]) DefineRole(name string, proc ProcessOn[G]) {
	if proc == nil {
		p.table.Panicf("DefineRole", "%q with nil process", name)
	}
	p.table.Define("DefineRole", name, proc)
}

// AssignRole puts nodes [lo, hi) into the named role (last assignment
// wins, clearing any per-node override). It panics on an unknown role or
// an out-of-range interval.
func (p *PopulationOn[G]) AssignRole(name string, lo, hi int) {
	p.table.Assign("AssignRole", name, lo, hi)
}

// AssignRoleNodes puts the listed nodes into the named role.
func (p *PopulationOn[G]) AssignRoleNodes(name string, nodes ...int) {
	p.table.AssignNodes("AssignRoleNodes", name, nodes...)
}

// SetNodeProcess gives node u a per-node override, detaching it from its
// role. A nil proc resets u to the default process.
func (p *PopulationOn[G]) SetNodeProcess(u int, proc ProcessOn[G]) {
	if proc == nil {
		p.table.Reset("SetNodeProcess", u)
		return
	}
	p.table.Override("SetNodeProcess", u, proc)
}

// SetRoleProcess swaps the named role's process and returns the nodes it
// currently covers (mirroring RateMap.SetClassRate). O(n).
func (p *PopulationOn[G]) SetRoleProcess(name string, proc ProcessOn[G]) []int {
	if proc == nil {
		p.table.Panicf("SetRoleProcess", "%q with nil process", name)
	}
	return p.table.SetClass("SetRoleProcess", name, proc)
}

// Role returns node u's role name, or "" for default-role nodes and
// per-node overrides.
func (p *PopulationOn[G]) Role(u int) string { return p.table.ClassOf(u) }

// ProcessOf returns the process node u currently runs.
func (p *PopulationOn[G]) ProcessOf(u int) ProcessOn[G] {
	if procs := p.table.Values(); u < len(procs) {
		return procs[u]
	}
	return p.table.Default()
}

// Nodes returns the current members of the named role, ascending — e.g.
// the eavesdropper coalition handed to analyze.NewAnonymity.
func (p *PopulationOn[G]) Nodes(name string) []int { return p.table.Members("Nodes", name) }

// Roles returns the defined role names in definition order.
func (p *PopulationOn[G]) Roles() []string { return p.table.Names() }
