package core

import (
	"fmt"
	"strings"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// A PopulationOn assigns every node its own behavior: node u's round action
// dispatches through the Process its *role* selects, so heterogeneous
// populations — 5% Byzantine, 10% selfish, the rest honest — run in one
// session on any engine. The design mirrors eventsim's RateMap: named role
// classes plus per-node overrides, mutable between steps, resolvable from a
// textual spec (ParseRoleSpec).
//
// A population implements ProcessOn itself, which is how it threads through
// every runtime unchanged: the sequential, sharded, dense-phase, tick-async
// and event-driven engines all call Act(g, u, r, propose) per node, and the
// Population forwards to node u's own process on node u's existing stream.
// Determinism is inherited wholesale — each member process draws only from
// the *r it is handed, so runs are bit-replayable from (seed, roles) at any
// Workers / GOMAXPROCS, and a population whose every node runs the default
// process performs exactly the legacy single-Process call sequence
// (byte-identical Results and delta streams; the equivalence suites in
// internal/sim and internal/eventsim pin this).
//
// Mutate a Population only between session steps (AssignRole /
// SetNodeProcess / SetRoleProcess); the dispatch table is read concurrently
// by the sharded engines during a step. Dense-phase rounds bypass processes
// entirely — roles stop applying once the phase flips, exactly as the
// legacy wrappers did.
//
// Nodes beyond the population's size (members admitted later via
// Session.InsertNode) run the default process.
type PopulationOn[G any] struct {
	kind      string // "Population" / "DirectedPopulation", for panic texts
	def       ProcessOn[G]
	procs     []ProcessOn[G]
	classProc []ProcessOn[G]
	roleTable
}

// Population is the undirected PopulationOn.
type Population = PopulationOn[*graph.Undirected]

// DirectedPopulation is the directed PopulationOn: per-node dispatch over
// DirectedProcess behaviors, same bookkeeping, same determinism contract.
type DirectedPopulation = PopulationOn[*graph.Directed]

// roleTable is the class/override bookkeeping under PopulationOn.
type roleTable struct {
	classOf  []int32 // node -> class index, -1 = default or override
	override []bool  // node has a per-node process override
	assigned int     // nodes not running the default process
	classes  []string
	byName   map[string]int
}

func newRoleTable(n int) roleTable {
	t := roleTable{
		classOf:  make([]int32, n),
		override: make([]bool, n),
		byName:   make(map[string]int),
	}
	for i := range t.classOf {
		t.classOf[i] = -1
	}
	return t
}

// setNode moves node u to (class, override) and keeps the assigned count —
// the number of nodes not running the default — exact.
func (t *roleTable) setNode(u int, class int32, override bool) {
	wasDefault := t.classOf[u] == -1 && !t.override[u]
	t.classOf[u] = class
	t.override[u] = override
	nowDefault := class == -1 && !override
	if wasDefault && !nowDefault {
		t.assigned++
	} else if !wasDefault && nowDefault {
		t.assigned--
	}
}

func (t *roleTable) defineClass(kind, name string) int {
	if name == "" {
		panic("core: " + kind + ": DefineRole with empty name")
	}
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("core: %s: role %q already defined", kind, name))
	}
	t.byName[name] = len(t.classes)
	t.classes = append(t.classes, name)
	return len(t.classes) - 1
}

func (t *roleTable) classIndex(kind, op, name string) int {
	c, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("core: %s: %s of unknown role %q", kind, op, name))
	}
	return c
}

// role returns node u's class name, or "" for default-role nodes and
// per-node overrides.
func (t *roleTable) role(u int) string {
	if u >= len(t.classOf) || t.classOf[u] == -1 {
		return ""
	}
	return t.classes[t.classOf[u]]
}

// nodes returns the current members of the named class, ascending.
func (t *roleTable) nodes(kind, name string) []int {
	c := int32(t.classIndex(kind, "Nodes", name))
	var members []int
	for u := range t.classOf {
		if t.classOf[u] == c {
			members = append(members, u)
		}
	}
	return members
}

// summary renders the mixed-population name suffix:
// "roles[byzantine:3,selfish:6,override:2]", classes in definition order,
// zero-member classes skipped.
func (t *roleTable) summary() string {
	counts := make([]int, len(t.classes))
	overrides := 0
	for u := range t.classOf {
		if t.override[u] {
			overrides++
		} else if c := t.classOf[u]; c >= 0 {
			counts[c]++
		}
	}
	var b strings.Builder
	b.WriteString("roles[")
	first := true
	for c, name := range t.classes {
		if counts[c] == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s:%d", name, counts[c])
	}
	if overrides > 0 {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "override:%d", overrides)
	}
	b.WriteByte(']')
	return b.String()
}

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
	if n < 0 {
		panic(fmt.Sprintf("core: New%s with negative n %d", kind, n))
	}
	if def == nil {
		panic("core: New" + kind + " with nil default process")
	}
	p := &PopulationOn[G]{
		kind:      kind,
		def:       def,
		procs:     make([]ProcessOn[G], n),
		roleTable: newRoleTable(n),
	}
	for i := range p.procs {
		p.procs[i] = def
	}
	return p
}

// N returns the number of nodes the population covers.
func (p *PopulationOn[G]) N() int { return len(p.procs) }

// Uniform reports whether every node currently runs the default process —
// the populations whose runs are byte-identical to the plain single-Process
// path.
func (p *PopulationOn[G]) Uniform() bool { return p.assigned == 0 }

// Name implements ProcessOn: the default process's name for a uniform
// population (so experiment output is unchanged), else the default name
// plus a role census, e.g. "push+roles[byzantine:3,selfish:6]".
func (p *PopulationOn[G]) Name() string {
	if p.assigned == 0 {
		return p.def.Name()
	}
	return p.def.Name() + "+" + p.summary()
}

// Act implements ProcessOn: node u's action is its own process's action, on
// u's existing stream — the whole dispatch is one slice index, so uniform
// populations add zero allocations to the hot step path.
func (p *PopulationOn[G]) Act(g G, u int, r *rng.Rand, propose func(a, b int)) {
	if u < len(p.procs) {
		p.procs[u].Act(g, u, r, propose)
		return
	}
	p.def.Act(g, u, r, propose)
}

// DefineRole registers a named role class running proc. It panics on an
// empty or duplicate name or a nil process.
func (p *PopulationOn[G]) DefineRole(name string, proc ProcessOn[G]) {
	if proc == nil {
		panic(fmt.Sprintf("core: DefineRole(%q) with nil process", name))
	}
	p.defineClass(p.kind, name)
	p.classProc = append(p.classProc, proc)
}

// AssignRole puts nodes [lo, hi) into the named role (last assignment
// wins, clearing any per-node override). It panics on an unknown role or
// an out-of-range interval.
func (p *PopulationOn[G]) AssignRole(name string, lo, hi int) {
	c := p.classIndex(p.kind, "AssignRole", name)
	if lo < 0 || hi > len(p.procs) || lo > hi {
		panic(fmt.Sprintf("core: AssignRole range [%d, %d) outside [0, %d)", lo, hi, len(p.procs)))
	}
	for u := lo; u < hi; u++ {
		p.setNode(u, int32(c), false)
		p.procs[u] = p.classProc[c]
	}
}

// AssignRoleNodes puts the listed nodes into the named role.
func (p *PopulationOn[G]) AssignRoleNodes(name string, nodes ...int) {
	c := p.classIndex(p.kind, "AssignRoleNodes", name)
	for _, u := range nodes {
		if u < 0 || u >= len(p.procs) {
			panic(fmt.Sprintf("core: AssignRoleNodes node %d outside [0, %d)", u, len(p.procs)))
		}
		p.setNode(u, int32(c), false)
		p.procs[u] = p.classProc[c]
	}
}

// SetNodeProcess gives node u a per-node override, detaching it from its
// role. A nil proc resets u to the default process.
func (p *PopulationOn[G]) SetNodeProcess(u int, proc ProcessOn[G]) {
	if u < 0 || u >= len(p.procs) {
		panic(fmt.Sprintf("core: SetNodeProcess node %d outside [0, %d)", u, len(p.procs)))
	}
	if proc == nil {
		p.setNode(u, -1, false)
		p.procs[u] = p.def
		return
	}
	p.setNode(u, -1, true)
	p.procs[u] = proc
}

// SetRoleProcess swaps the named role's process and returns the nodes it
// currently covers (mirroring RateMap.SetClassRate). O(n).
func (p *PopulationOn[G]) SetRoleProcess(name string, proc ProcessOn[G]) []int {
	c := p.classIndex(p.kind, "SetRoleProcess", name)
	if proc == nil {
		panic(fmt.Sprintf("core: SetRoleProcess(%q) with nil process", name))
	}
	p.classProc[c] = proc
	members := p.nodes(p.kind, name)
	for _, u := range members {
		p.procs[u] = proc
	}
	return members
}

// Role returns node u's role name, or "" for default-role nodes and
// per-node overrides.
func (p *PopulationOn[G]) Role(u int) string { return p.role(u) }

// ProcessOf returns the process node u currently runs.
func (p *PopulationOn[G]) ProcessOf(u int) ProcessOn[G] {
	if u >= len(p.procs) {
		return p.def
	}
	return p.procs[u]
}

// Nodes returns the current members of the named role, ascending — e.g.
// the eavesdropper coalition handed to analyze.NewAnonymity.
func (p *PopulationOn[G]) Nodes(name string) []int { return p.nodes(p.kind, name) }

// Roles returns the defined role names in definition order.
func (p *PopulationOn[G]) Roles() []string { return append([]string(nil), p.classes...) }
