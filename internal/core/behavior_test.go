package core

import (
	"math"
	"reflect"
	"testing"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// collectN runs reps Acts for node u on one continuous stream and returns
// every proposed edge in order — the draw-for-draw fingerprint the wrapper
// structs and their behavior-chain equivalents must share.
func collectN(p Process, g *graph.Undirected, u int, seed uint64, reps int) []graph.Edge {
	r := rng.New(seed)
	var out []graph.Edge
	for i := 0; i < reps; i++ {
		p.Act(g, u, r, func(a, b int) { out = append(out, graph.Edge{U: a, V: b}) })
	}
	return out
}

// TestWrapMatchesDeprecatedWrappers pins the chain against the two wrapper
// structs that remain, draw for draw on a shared stream: Crashed and
// CrashedPull are documented as the chain's equals on these inners, so any
// divergence is a contract break.
func TestWrapMatchesDeprecatedWrappers(t *testing.T) {
	g := gen.Cycle(16)
	alive := make([]bool, 16)
	for i := range alive {
		alive[i] = i%3 != 0
	}
	cases := []struct {
		name       string
		old, chain Process
	}{
		{"crashed-push", Crashed{Inner: Push{}, Alive: alive}, Wrap(Push{}, Crash(alive))},
		{"crashed-pull", CrashedPull{Alive: alive}, Wrap(Pull{}, Crash(alive))},
	}
	for _, tc := range cases {
		for u := 0; u < 16; u++ {
			want := collectN(tc.old, g, u, uint64(u)+1, 400)
			got := collectN(tc.chain, g, u, uint64(u)+1, 400)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: node %d diverged: old %v chain %v", tc.name, u, want, got)
			}
		}
	}
}

// TestCrashRelayGateStopsWalk: a dead relay ends the walk before the
// second hop — path 0-1-2 with 1 dead can never propose {0,2}, and the
// refused walk must consume exactly one draw (the CrashedPull contract).
func TestCrashRelayGateStopsWalk(t *testing.T) {
	g := gen.Path(3)
	alive := []bool{true, false, true}
	p := Wrap(Pull{}, Crash(alive))
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		p.Act(g, 0, r, func(a, b int) {
			t.Fatalf("walk through dead relay proposed {%d,%d}", a, b)
		})
	}
	// Same stream, hand-replayed: each refused walk drew exactly the one
	// relay sample.
	r2 := rng.New(11)
	for i := 0; i < 200; i++ {
		if v := g.RandomNeighbor(0, r2); v != 1 {
			t.Fatalf("replay diverged: draw %d gave %d", i, v)
		}
	}
}

// TestWrapWithoutRelayAwareInnerIgnoresRelay: the relay gate only applies
// to RelayProcess inners — Push under Crash keeps the legacy Crashed
// semantics.
func TestWrapWithoutRelayAwareInnerIgnoresRelay(t *testing.T) {
	g := gen.Complete(6)
	alive := []bool{true, true, false, true, true, true}
	want := collectN(Crashed{Inner: Push{}, Alive: alive}, g, 0, 5, 500)
	got := collectN(Wrap(Push{}, Crash(alive)), g, 0, 5, 500)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("push under crash diverged: %v vs %v", want, got)
	}
}

// TestWrapComposition: stacked layers apply participation gates and
// proposal filters in chain order.
func TestWrapComposition(t *testing.T) {
	g := gen.Star(8)
	// probeProcess proposes (0, 1) once per act.
	p := Wrap(probeProcess{}, Participation(0.5), Fail(0.5))
	r := rng.New(21)
	const draws = 40000
	hits := 0
	for i := 0; i < draws; i++ {
		p.Act(g, 0, r, func(a, b int) { hits++ })
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("part(0.5)+fail(0.5) pass rate %.4f want 0.25", rate)
	}
}

// TestWrapRewriteFilter: a Propose hook may rewrite, not just drop.
func TestWrapRewriteFilter(t *testing.T) {
	redirect := Behavior{
		Label: "redirect",
		Propose: func(a, b int, r *rng.Rand, emit func(a, b int)) {
			emit(a, 7)
		},
	}
	g := gen.Star(8)
	p := Wrap(probeProcess{}, redirect)
	r := rng.New(22)
	seen := false
	p.Act(g, 0, r, func(a, b int) {
		seen = true
		if b != 7 {
			t.Fatalf("rewrite lost: got (%d,%d)", a, b)
		}
	})
	if !seen {
		t.Fatal("rewritten proposal never arrived")
	}
}

// TestWrapEmptyChainIsIdentity: Wrap with no layers returns the inner
// process itself.
func TestWrapEmptyChainIsIdentity(t *testing.T) {
	p := Push{}
	if got := Wrap(p); got != (Push{}) {
		t.Fatalf("Wrap() = %T, want the inner process", got)
	}
	if got := WrapDirected(DirectedTwoHop{}); got != (DirectedTwoHop{}) {
		t.Fatalf("WrapDirected() = %T, want the inner process", got)
	}
}

// TestBehaviorNames pins the wrapped-name format, including the fixed
// Crashed alive-fraction encoding.
func TestBehaviorNames(t *testing.T) {
	alive := []bool{true, true, true, false}
	cases := map[string]string{
		Wrap(Push{}, Fail(0.3)).Name():                      "push+fail0.30",
		Wrap(Pull{}, Crash(alive)).Name():                   "pull+crash0.75",
		Wrap(Push{}, Fail(0.25), Participation(0.5)).Name(): "push+fail0.25+part0.50",
		WrapDirected(DirectedTwoHop{}, Fail(0.1)).Name():    "directed-two-hop+fail0.10",
		(Crashed{Inner: Push{}, Alive: alive}).Name():       "push+crash0.75",
		(CrashedPull{Alive: alive}).Name():                  "pull+crash0.75",
		(Crashed{Inner: Push{}, Alive: nil}).Name():         "push+crash",
		(Byzantine{Target: -1}).Name():                      "byzantine",
		(Byzantine{Target: 3}).Name():                       "byzantine@3",
		Selfish{}.Name():                                    "selfish",
		Silent{}.Name():                                     "silent",
		SilentDirected{}.Name():                             "silent",
		(ByzantineDirected{Target: -1}).Name():              "byzantine",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("name %q want %q", got, want)
		}
	}
}

// TestByzantineFunnelsToTarget: every proposal names the target.
func TestByzantineFunnelsToTarget(t *testing.T) {
	g := gen.Complete(8)
	r := rng.New(31)
	z := Byzantine{Target: 5}
	for i := 0; i < 300; i++ {
		z.Act(g, 2, r, func(a, b int) {
			if b != 5 {
				t.Fatalf("byzantine proposed (%d,%d), target 5", a, b)
			}
			if !g.HasEdge(2, a) {
				t.Fatalf("byzantine proposed non-neighbor %d", a)
			}
		})
	}
	// Self-targeting form names the actor.
	zs := Byzantine{Target: -1}
	for i := 0; i < 300; i++ {
		zs.Act(g, 2, r, func(a, b int) {
			if b != 2 {
				t.Fatalf("self-byzantine proposed (%d,%d)", a, b)
			}
		})
	}
}

// TestSelfishMatchesPullDraws: the free-rider is the two-hop walk, draw
// for draw.
func TestSelfishMatchesPullDraws(t *testing.T) {
	g := gen.Cycle(10)
	for u := 0; u < 10; u++ {
		want := collectN(Pull{}, g, u, uint64(u)+41, 300)
		got := collectN(Selfish{}, g, u, uint64(u)+41, 300)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("node %d: selfish diverged from pull", u)
		}
	}
}

// TestSilentNeverProposes covers both directions.
func TestSilentNeverProposes(t *testing.T) {
	g := gen.Complete(5)
	r := rng.New(51)
	for i := 0; i < 100; i++ {
		Silent{}.Act(g, 0, r, func(a, b int) { t.Fatal("silent proposed") })
	}
	dg := gen.DirectedCycle(5)
	for i := 0; i < 100; i++ {
		SilentDirected{}.Act(dg, 0, r, func(a, b int) { t.Fatal("silent proposed") })
	}
}
