package core

import (
	"reflect"
	"strings"
	"testing"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// tagProc proposes the fixed edge (tag, tag) — a marker that identifies,
// from the proposal stream, which process a node dispatched through.
type tagProc struct{ tag int }

func (p tagProc) Name() string { return "tag" }
func (p tagProc) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	propose(p.tag, p.tag)
}

// actTag runs node u once and returns the marker it proposed (-1 for no
// proposal).
func actTag(p Process, g *graph.Undirected, u int) int {
	got := -1
	p.Act(g, u, rng.New(1), func(a, b int) { got = a })
	return got
}

func TestPopulationDispatchesPerNode(t *testing.T) {
	g := gen.Complete(6)
	pop := NewPopulation(6, tagProc{tag: 0})
	pop.DefineRole("ones", tagProc{tag: 1})
	pop.DefineRole("twos", tagProc{tag: 2})
	pop.AssignRole("ones", 1, 3)           // nodes 1, 2
	pop.AssignRoleNodes("twos", 4)         // node 4
	pop.SetNodeProcess(5, tagProc{tag: 9}) // override
	want := []int{0, 1, 1, 0, 2, 9}
	for u, tag := range want {
		if got := actTag(pop, g, u); got != tag {
			t.Fatalf("node %d dispatched tag %d, want %d", u, got, tag)
		}
	}
	// Nodes beyond the population run the default.
	big := gen.Complete(8)
	if got := actTag(pop, big, 7); got != 0 {
		t.Fatalf("out-of-range node dispatched tag %d, want default 0", got)
	}
}

// Both populations are one PopulationOn, so their bookkeeping and panic
// tests are one body each, run per substrate: newPop is the exported
// constructor, def the default process, x and y two role processes, g a
// complete graph on 10 nodes.
func TestPopulationBookkeeping(t *testing.T) {
	t.Run("undirected", func(t *testing.T) {
		testPopulationBookkeeping(t, NewPopulation, Push{}, Byzantine{Target: -1}, Selfish{}, gen.Complete(10))
	})
	t.Run("directed", func(t *testing.T) {
		testPopulationBookkeeping(t, NewDirectedPopulation, DirectedTwoHop{},
			ByzantineDirected{Target: -1}, ByzantineDirected{Target: 0}, gen.CompleteDigraph(10))
	})
}

func testPopulationBookkeeping[G any](t *testing.T, newPop func(int, ProcessOn[G]) *PopulationOn[G],
	def, x, y ProcessOn[G], g G) {
	pop := newPop(10, def)
	if !pop.Uniform() || pop.Name() != def.Name() {
		t.Fatalf("fresh population not uniform: %q", pop.Name())
	}
	pop.DefineRole("byzantine", x)
	pop.DefineRole("selfish", y)
	if pop.N() != 10 || !pop.Uniform() {
		t.Fatal("defining roles must not assign anyone")
	}
	pop.AssignRole("byzantine", 0, 3)
	pop.AssignRole("selfish", 2, 5) // steals node 2: last assignment wins
	if got := pop.Nodes("byzantine"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("byzantine members %v", got)
	}
	if got := pop.Nodes("selfish"); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("selfish members %v", got)
	}
	if pop.Role(2) != "selfish" || pop.Role(5) != "" {
		t.Fatalf("Role lookup wrong: %q %q", pop.Role(2), pop.Role(5))
	}
	if pop.ProcessOf(1) != x || pop.ProcessOf(2) != y || pop.ProcessOf(5) != def || pop.ProcessOf(99) != def {
		t.Fatalf("ProcessOf wrong: %v %v %v %v", pop.ProcessOf(1), pop.ProcessOf(2), pop.ProcessOf(5), pop.ProcessOf(99))
	}
	if pop.Uniform() {
		t.Fatal("mixed population reported uniform")
	}
	wantName := def.Name() + "+roles[byzantine:2,selfish:3]"
	if pop.Name() != wantName {
		t.Fatalf("Name %q want %q", pop.Name(), wantName)
	}

	// Overrides detach from the role and show up in the census.
	pop.SetNodeProcess(2, SilentOn[G]{})
	if got := pop.Nodes("selfish"); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("selfish members after override %v", got)
	}
	if !strings.Contains(pop.Name(), "override:1") {
		t.Fatalf("Name %q missing override census", pop.Name())
	}

	// Resetting everyone to default restores uniformity exactly.
	pop.SetNodeProcess(2, nil)
	pop.AssignRole("byzantine", 0, 0) // empty range: no-op
	for u := 0; u < 10; u++ {
		pop.SetNodeProcess(u, nil)
	}
	if !pop.Uniform() || pop.Name() != def.Name() {
		t.Fatalf("reset population not uniform: %q", pop.Name())
	}

	// SetRoleProcess retunes the class and reports its members.
	pop.AssignRole("byzantine", 6, 9)
	if got := pop.SetRoleProcess("byzantine", SilentOn[G]{}); !reflect.DeepEqual(got, []int{6, 7, 8}) {
		t.Fatalf("SetRoleProcess members %v", got)
	}
	r := rng.New(2)
	pop.Act(g, 7, r, func(a, b int) { t.Fatal("retuned silent node proposed") })
}

func TestPopulationPanics(t *testing.T) {
	t.Run("undirected", func(t *testing.T) { testPopulationPanics(t, NewPopulation, Push{}, "Population") })
	t.Run("directed", func(t *testing.T) {
		testPopulationPanics(t, NewDirectedPopulation, DirectedTwoHop{}, "DirectedPopulation")
	})
}

func testPopulationPanics[G any](t *testing.T, newPop func(int, ProcessOn[G]) *PopulationOn[G],
	def ProcessOn[G], kind string) {
	// Every panic is a "core:" string; the ones the role table raises name
	// the exported type, not the generic one under it.
	expectPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "core: ") || !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want a core: panic naming %q", name, msg, want)
			}
		}()
		fn()
	}
	silent := SilentOn[G]{}
	pop := newPop(4, def)
	pop.DefineRole("x", silent)
	expectPanic("negative n", "New"+kind, func() { newPop(-1, def) })
	expectPanic("nil default", "New"+kind, func() { newPop(1, nil) })
	expectPanic("dup role", " "+kind+":", func() { pop.DefineRole("x", silent) })
	expectPanic("empty role", " "+kind+":", func() { pop.DefineRole("", silent) })
	expectPanic("nil role proc", "DefineRole", func() { pop.DefineRole("y", nil) })
	expectPanic("unknown assign", " "+kind+":", func() { pop.AssignRole("nope", 0, 1) })
	expectPanic("bad range", "AssignRole", func() { pop.AssignRole("x", 0, 5) })
	expectPanic("bad node", "AssignRoleNodes", func() { pop.AssignRoleNodes("x", 4) })
	expectPanic("override range", "SetNodeProcess", func() { pop.SetNodeProcess(-1, silent) })
	expectPanic("unknown nodes", " "+kind+":", func() { pop.Nodes("nope") })
}

func TestSpreadNodes(t *testing.T) {
	// k nodes over [lo, hi]: strictly increasing, in range, deterministic.
	cases := []struct{ lo, hi, k int }{
		{0, 99, 10}, {0, 99, 100}, {0, 99, 1}, {5, 9, 5}, {10, 20, 3},
	}
	for _, tc := range cases {
		got := spreadNodes(tc.lo, tc.hi, tc.k)
		if len(got) != tc.k {
			t.Fatalf("spread(%d,%d,%d) len %d", tc.lo, tc.hi, tc.k, len(got))
		}
		for i, u := range got {
			if u < tc.lo || u > tc.hi {
				t.Fatalf("spread(%d,%d,%d)[%d] = %d out of range", tc.lo, tc.hi, tc.k, i, u)
			}
			if i > 0 && u <= got[i-1] {
				t.Fatalf("spread(%d,%d,%d) not strictly increasing: %v", tc.lo, tc.hi, tc.k, got)
			}
		}
	}
	if !reflect.DeepEqual(spreadNodes(0, 9, 2), []int{0, 5}) {
		t.Fatalf("spread(0,9,2) = %v", spreadNodes(0, 9, 2))
	}
}

func TestParseRoleSpecIssueExample(t *testing.T) {
	// The spec from the design brief: honest default, 5% Byzantine over the
	// whole population, 10 selfish nodes within ids 0-99.
	pop, err := ParseRoleSpec("honest,byzantine=5%,selfish=10:0-99", 200, Push{})
	if err != nil {
		t.Fatal(err)
	}
	// 5% of 200 = 10 Byzantine spread over 0..199 at stride 20; the selfish
	// segment then claims 0,10,...,90 (last assignment wins), taking the
	// even-hundreds Byzantine slots below 100 with it.
	wantByz := []int{100, 120, 140, 160, 180}
	wantSelf := []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	if got := pop.Nodes("byzantine"); !reflect.DeepEqual(got, wantByz) {
		t.Fatalf("byzantine %v want %v", got, wantByz)
	}
	if got := pop.Nodes("selfish"); !reflect.DeepEqual(got, wantSelf) {
		t.Fatalf("selfish %v want %v", got, wantSelf)
	}
	if pop.Uniform() {
		t.Fatal("mixed spec parsed uniform")
	}
}

func TestParseRoleSpecDefaults(t *testing.T) {
	// Empty spec: uniform on the base.
	pop, err := ParseRoleSpec("", 8, Pull{})
	if err != nil || !pop.Uniform() || pop.Name() != "pull" {
		t.Fatalf("empty spec: %v %q", err, pop.Name())
	}
	// Nil base defaults to Push.
	pop, err = ParseRoleSpec("", 8, nil)
	if err != nil || pop.Name() != "push" {
		t.Fatalf("nil base: %v %q", err, pop.Name())
	}
	// A bare role segment swaps the default for everyone.
	pop, err = ParseRoleSpec("silent,byzantine=2", 8, Push{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Complete(8)
	r := rng.New(3)
	if members := pop.Nodes("byzantine"); !reflect.DeepEqual(members, []int{0, 4}) {
		t.Fatalf("byzantine members %v", members)
	}
	pop.Act(g, 1, r, func(a, b int) { t.Fatal("silent default proposed") })
	// Eavesdroppers run the base process but are a named coalition.
	pop, err = ParseRoleSpec("eavesdropper=4", 16, Push{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pop.Nodes("eavesdropper"); !reflect.DeepEqual(got, []int{0, 4, 8, 12}) {
		t.Fatalf("coalition %v", got)
	}
	for u := 0; u < 16; u++ {
		// Every node still draws exactly like push.
		want := collectN(Push{}, gen.Cycle(16), u, uint64(u)+9, 50)
		got := collectN(pop, gen.Cycle(16), u, uint64(u)+9, 50)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("eavesdropper population diverged from push at node %d", u)
		}
	}
}

func TestParseRoleSpecErrors(t *testing.T) {
	bad := []string{
		",",                        // empty segment
		"honest,",                  // trailing empty segment
		"wizard",                   // unknown role
		"wizard=5%",                // unknown quantified role
		"honest,silent,",           // empty tail
		"honest,honest",            // two defaults
		"byzantine=5%,byzantine=2", // duplicate quantified role
		"byzantine=101%",           // percentage out of range
		"byzantine=-1",             // negative count
		"byzantine=x",              // malformed count
		"byzantine=5%:9-2",         // inverted range
		"byzantine=5%:-3-2",        // negative range
		"byzantine=1:a-b",          // malformed range
	}
	for _, spec := range bad {
		if err := ValidateRoleSpec(spec); err == nil {
			t.Fatalf("ValidateRoleSpec(%q) accepted", spec)
		}
		if _, err := ParseRoleSpec(spec, 100, Push{}); err == nil {
			t.Fatalf("ParseRoleSpec(%q) accepted", spec)
		}
	}
	// n-dependent errors pass validation but fail resolution.
	for _, spec := range []string{
		"byzantine=5:0-99", // range outside an n=50 population
		"byzantine=80",     // count exceeds the population
	} {
		if err := ValidateRoleSpec(spec); err != nil {
			t.Fatalf("ValidateRoleSpec(%q): %v", spec, err)
		}
		if _, err := ParseRoleSpec(spec, 50, Push{}); err == nil {
			t.Fatalf("ParseRoleSpec(%q, 50) accepted", spec)
		}
	}
	if err := ValidateRoleSpec(""); err != nil {
		t.Fatalf("empty spec rejected: %v", err)
	}
}

func TestParseDirectedRoleSpec(t *testing.T) {
	pop, err := ParseDirectedRoleSpec("honest,byzantine=25%,silent=2:0-7", 16, DirectedTwoHop{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pop.Nodes("silent"); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("silent members %v", got)
	}
	// 25% of 16 = 4 Byzantine at 0,4,8,12; silent then steals 0 and 4.
	if got := pop.Nodes("byzantine"); !reflect.DeepEqual(got, []int{8, 12}) {
		t.Fatalf("byzantine members %v", got)
	}
	if pop.Name() == "directed-two-hop" {
		t.Fatal("mixed directed population kept the uniform name")
	}
	// Selfish has no directed process.
	if _, err := ParseDirectedRoleSpec("selfish=2", 8, nil); err == nil {
		t.Fatal("directed selfish accepted")
	}
	if _, err := ParseDirectedRoleSpec("selfish", 8, nil); err == nil {
		t.Fatal("directed selfish default accepted")
	}
}
