package analyze

import (
	"math"
	"strings"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// emitter drives analyzers with real deltas: it owns a graph and an
// accumulator, applies each round's edges, and publishes a KindRound event.
type emitter struct {
	g     *graph.Undirected
	acc   *stream.DeltaAccumulator
	bus   stream.Bus
	round int
}

func newEmitter(n int, subs ...stream.Subscriber) *emitter {
	e := &emitter{g: graph.NewUndirected(n), acc: stream.NewDeltaAccumulator(n)}
	for _, s := range subs {
		e.bus.Subscribe(s)
	}
	return e
}

func (e *emitter) roundOf(edges ...graph.Edge) {
	e.round++
	accepted := edges[:0:0]
	for _, ed := range edges {
		if e.g.AddEdge(ed.U, ed.V) {
			accepted = append(accepted, ed.Norm())
		}
	}
	e.acc.Fill(e.round, e.g, accepted)
	e.bus.EmitRound(e.g, &e.acc.D, float64(e.round))
}

func (e *emitter) membership(kind stream.Kind, u int) {
	e.bus.EmitMembership(kind, e.g, u, float64(e.round))
}

func edge(u, v int) graph.Edge { return graph.Edge{U: u, V: v} }

func hasRule(fs []Finding, rule string, sev Severity) bool {
	for _, f := range fs {
		if f.Rule == rule && f.Severity == sev {
			return true
		}
	}
	return false
}

func TestConnectivityComponentsAndRisk(t *testing.T) {
	c := NewConnectivity(1)
	e := newEmitter(6, c)

	e.roundOf(edge(0, 1), edge(2, 3))
	if got := c.Components(); got != 2 {
		t.Fatalf("components after two disjoint edges = %d, want 2", got)
	}
	if got := c.AtRisk(); got != 4 {
		t.Fatalf("at-risk = %d, want 4 (all actives at degree 1)", got)
	}
	fs := c.Findings()
	if !hasRule(fs, "partition", SevCritical) {
		t.Errorf("expected critical partition finding, got %v", fs)
	}
	if !hasRule(fs, "isolation-risk", SevWarning) {
		t.Errorf("expected isolation-risk warning, got %v", fs)
	}

	e.roundOf(edge(1, 2))
	if got := c.Components(); got != 1 {
		t.Fatalf("components after bridge = %d, want 1", got)
	}
	if got := c.AtRisk(); got != 2 {
		t.Fatalf("at-risk after bridge = %d, want 2 (endpoints 0 and 3)", got)
	}

	// Lift the endpoints above the threshold; nodes 4,5 stay inactive.
	e.roundOf(edge(0, 2), edge(3, 1))
	if got := c.AtRisk(); got != 0 {
		t.Fatalf("at-risk = %d, want 0", got)
	}
	if got := c.Active(); got != 4 {
		t.Fatalf("active = %d, want 4", got)
	}
	fs = c.Findings()
	if !hasRule(fs, "connectivity", SevInfo) || len(fs) != 1 {
		t.Errorf("expected single healthy info finding, got %v", fs)
	}
}

func TestConnectivityChurn(t *testing.T) {
	c := NewConnectivity(1)
	e := newEmitter(4, c)

	e.roundOf(edge(0, 1), edge(1, 2), edge(2, 3))
	if c.Components() != 1 || c.AtRisk() != 2 || c.Active() != 4 {
		t.Fatalf("path state = (%d comps, %d risk, %d active), want (1, 2, 4)",
			c.Components(), c.AtRisk(), c.Active())
	}

	e.membership(stream.KindLeave, 0)
	if c.Active() != 3 || c.AtRisk() != 1 {
		t.Fatalf("after leave(0): active=%d risk=%d, want 3, 1", c.Active(), c.AtRisk())
	}
	e.membership(stream.KindLeave, 3)
	if c.AtRisk() != 0 || c.Components() != 1 {
		t.Fatalf("after leave(3): risk=%d comps=%d, want 0, 1", c.AtRisk(), c.Components())
	}
	e.membership(stream.KindLeave, 1)
	e.membership(stream.KindLeave, 2)
	if c.Active() != 0 {
		t.Fatalf("after all leave: active=%d, want 0", c.Active())
	}
	if fs := c.Findings(); fs != nil {
		t.Fatalf("findings with no active nodes = %v, want nil", fs)
	}

	e.membership(stream.KindJoin, 0)
	if c.Active() != 1 || c.AtRisk() != 1 || c.Components() != 1 {
		t.Fatalf("after rejoin(0): (%d active, %d risk, %d comps), want (1, 1, 1)",
			c.Active(), c.AtRisk(), c.Components())
	}

	// Degree growth on a departed slot (stale edges) must not resurrect it.
	e.roundOf(edge(1, 3))
	if c.Active() != 1 {
		t.Fatalf("stale edge resurrected departed nodes: active=%d, want 1", c.Active())
	}
}

// TestConnectivityMidRunAttach pins the init rewind: an analyzer whose first
// event is round k of a warm graph must agree with one attached from round 1.
func TestConnectivityMidRunAttach(t *testing.T) {
	fromStart := NewConnectivity(1)
	e := newEmitter(8, fromStart)
	e.roundOf(edge(0, 1), edge(2, 3))
	e.roundOf(edge(1, 2), edge(4, 5))

	late := NewConnectivity(1)
	e.bus.Subscribe(late)
	e.roundOf(edge(3, 4), edge(0, 2))

	if late.Components() != fromStart.Components() || late.AtRisk() != fromStart.AtRisk() || late.Active() != fromStart.Active() {
		t.Fatalf("late attach = (%d, %d, %d), from-start = (%d, %d, %d)",
			late.Components(), late.AtRisk(), late.Active(),
			fromStart.Components(), fromStart.AtRisk(), fromStart.Active())
	}
}

func TestDegreeDriftGauges(t *testing.T) {
	d := NewDegreeDrift(4)
	e := newEmitter(4, d)

	e.roundOf(edge(0, 1), edge(2, 3))
	if m := d.Mean(); m != 1 {
		t.Fatalf("mean = %v, want 1", m)
	}
	if v := d.Variance(); v != 0 {
		t.Fatalf("variance = %v, want 0", v)
	}

	e.roundOf(edge(0, 2))
	if m := d.Mean(); m != 1.5 {
		t.Fatalf("mean = %v, want 1.5", m)
	}
	if v := d.Variance(); v != 0.25 {
		t.Fatalf("variance = %v, want 0.25", v)
	}
	if cv := d.CV(); math.Abs(cv-math.Sqrt(0.25)/1.5) > 1e-12 {
		t.Fatalf("cv = %v", cv)
	}
	if dr := d.Drift(); dr != 0.5 {
		t.Fatalf("drift = %v, want 0.5 (mean rose 1 -> 1.5 over one round)", dr)
	}
}

func TestDegreeDriftSkewFinding(t *testing.T) {
	d := NewDegreeDrift(0)
	e := newEmitter(20, d)
	star := make([]graph.Edge, 0, 19)
	for v := 1; v < 20; v++ {
		star = append(star, edge(0, v))
	}
	e.roundOf(star...)
	if cv := d.CV(); cv <= d.SkewCV {
		t.Fatalf("star cv = %v, want > %v", cv, d.SkewCV)
	}
	if fs := d.Findings(); !hasRule(fs, "degree-skew", SevWarning) {
		t.Fatalf("expected degree-skew warning, got %v", fs)
	}
}

func TestStall(t *testing.T) {
	s := NewStall(3)
	a := &Age{}
	e := newEmitter(3, s, a)

	e.roundOf(edge(0, 1))
	for i := 0; i < 3; i++ {
		e.roundOf() // progress-free rounds 2..4
	}
	if got := s.Stalled(); got != 3 {
		t.Fatalf("stalled = %d, want 3", got)
	}
	if fs := s.Findings(); !hasRule(fs, "stall", SevWarning) {
		t.Fatalf("expected stall warning, got %v", fs)
	}

	// Ages: nodes 0,1 touched at time 1, node 2 never; now = 4.
	if mean := a.MeanAge(); math.Abs(mean-(4-2.0/3)) > 1e-12 {
		t.Fatalf("mean age = %v, want %v", mean, 4-2.0/3)
	}
	if age, node := a.MaxAge(); age != 4 || node != 2 {
		t.Fatalf("max age = (%v, node %d), want (4, node 2)", age, node)
	}

	for i := 0; i < 9; i++ {
		e.roundOf() // rounds 5..13: stalled reaches 12 = 4 x patience
	}
	if fs := s.Findings(); !hasRule(fs, "stall", SevCritical) {
		t.Fatalf("expected critical stall, got %v", fs)
	}

	e.roundOf(edge(0, 2))
	if got := s.Stalled(); got != 0 {
		t.Fatalf("stalled after progress = %d, want 0", got)
	}
	if fs := s.Findings(); len(fs) != 0 {
		t.Fatalf("stall finding after progress: %v", fs)
	}
	if fs := a.Findings(); !hasRule(fs, "age-of-information", SevInfo) {
		t.Fatalf("expected age-of-information info finding, got %v", fs)
	}
}

// TestHealthOnSession attaches the full pack to a real synchronous session
// and runs it to completion: a converged run must be healthy.
func TestHealthOnSession(t *testing.T) {
	h := NewHealth()
	s := sim.NewSession(gen.Path(16), core.Push{}, rng.New(7), sim.Config{})
	s.Subscribe(h)
	res := s.Run()
	if !res.Converged {
		t.Fatalf("session did not converge: %+v", res)
	}
	if h.Connectivity.Components() != 1 || h.Connectivity.AtRisk() != 0 {
		t.Fatalf("converged run unhealthy: %d components, %d at risk",
			h.Connectivity.Components(), h.Connectivity.AtRisk())
	}
	if got := h.Stall.Remaining(); got != 0 {
		t.Fatalf("remaining = %d, want 0", got)
	}
	for _, f := range h.Findings() {
		if f.Severity > SevInfo {
			t.Errorf("unexpected %s finding on healthy run: %s", f.Severity, f)
		}
	}
}

func TestFindingStringAndSort(t *testing.T) {
	fs := []Finding{
		{Rule: "b", Severity: SevInfo, Round: 3, Node: -1, Message: "m1"},
		{Rule: "a", Severity: SevCritical, Round: 3, Node: 2, Message: "m2"},
		{Rule: "a", Severity: SevCritical, Round: 3, Node: 1, Message: "m3"},
	}
	sortFindings(fs)
	if fs[0].Node != 1 || fs[1].Node != 2 || fs[2].Rule != "b" {
		t.Fatalf("sort order wrong: %v", fs)
	}
	if got := fs[0].String(); !strings.Contains(got, "[critical] a (round 3, node 1): m3") {
		t.Fatalf("String() = %q", got)
	}
	if got := fs[2].String(); strings.Contains(got, "node") {
		t.Fatalf("graph-wide finding mentions a node: %q", got)
	}
}

// TestHealthOnEventZeroAlloc pins the O(delta), allocation-free steady
// state of the full pack: after the first event warms the internal state,
// OnEvent must not allocate.
func TestHealthOnEventZeroAlloc(t *testing.T) {
	h := NewHealth()
	e := newEmitter(32, h)
	e.roundOf(edge(0, 1), edge(1, 2)) // warm-up: analyzer init
	ev := stream.Event{Kind: stream.KindRound, Time: 2, Graph: e.g, Delta: &e.acc.D}
	allocs := testing.AllocsPerRun(200, func() {
		h.OnEvent(&ev)
	})
	if allocs != 0 {
		t.Fatalf("Health.OnEvent allocates %v per event in steady state, want 0", allocs)
	}
}
