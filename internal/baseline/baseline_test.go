package baseline

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

func TestNameDropperConverges(t *testing.T) {
	g := gen.Path(32)
	meter := &IDMeter{}
	res := sim.Run(g, NameDropper{Meter: meter}, rng.New(1), sim.Config{})
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("name dropper did not complete: %+v", res)
	}
	if meter.IDs() == 0 || meter.Messages() == 0 {
		t.Fatal("meter recorded nothing")
	}
	// Polylog rounds: even a generous bound separates it from Θ(n log² n).
	if res.Rounds > 200 {
		t.Fatalf("name dropper took %d rounds on n=32 (expected polylog)", res.Rounds)
	}
}

func TestNameDropperFasterThanPush(t *testing.T) {
	// The bandwidth-hungry baseline should finish in far fewer rounds than
	// push on the same workload — that is the paper's motivating trade-off.
	mean := func(p core.Process) float64 {
		rs := sim.Trials(0, 10, 7, func(trial int, r *rng.Rand) *graph.Undirected {
			return gen.Cycle(48)
		}, func(g *graph.Undirected, r *rng.Rand) sim.Result { return sim.Run(g, p, r, sim.Config{}) })
		sum := 0.0
		for _, r := range rs {
			if !r.Converged {
				t.Fatal("trial did not converge")
			}
			sum += float64(r.Rounds)
		}
		return sum / float64(len(rs))
	}
	nd := mean(NameDropper{})
	push := mean(core.Push{})
	if nd*5 > push {
		t.Fatalf("name dropper (%.1f rounds) not clearly faster than push (%.1f)", nd, push)
	}
}

func TestNameDropperMessageSizesGrow(t *testing.T) {
	// Name Dropper messages carry Θ(d) IDs; on a star the center's message
	// carries n IDs.
	g := gen.Star(10)
	meter := &IDMeter{}
	nd := NameDropper{Meter: meter}
	r := rng.New(2)
	nd.Act(g, 0, r, func(a, b int) {})
	if meter.IDs() != 10 { // degree 9 + self
		t.Fatalf("center message carried %d IDs want 10", meter.IDs())
	}
	if meter.Messages() != 1 {
		t.Fatalf("messages %d", meter.Messages())
	}
}

func TestRandomPointerJumpConverges(t *testing.T) {
	g := gen.Cycle(24)
	meter := &IDMeter{}
	res := sim.Run(g, RandomPointerJump{Meter: meter}, rng.New(3), sim.Config{})
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("pointer jump did not complete: %+v", res)
	}
	if meter.IDs() == 0 {
		t.Fatal("meter recorded nothing")
	}
}

func TestRandomPointerJumpPullsNeighborList(t *testing.T) {
	// On a path 0-1-2, node 0 pulls N(1) = {0, 2} and must propose {0,2}.
	g := gen.Path(3)
	r := rng.New(4)
	var got []graph.Edge
	RandomPointerJump{}.Act(g, 0, r, func(a, b int) {
		got = append(got, graph.Edge{U: a, V: b}.Norm())
	})
	if len(got) != 1 || got[0] != (graph.Edge{U: 0, V: 2}) {
		t.Fatalf("pointer jump proposed %v", got)
	}
}

func TestMeteredGossipCounts(t *testing.T) {
	g := gen.Cycle(16)
	meter := &IDMeter{}
	p := MeteredGossip{Inner: core.Push{}, IDsPerAct: 2, Meter: meter}
	res := sim.Run(g, p, rng.New(5), sim.Config{})
	if !res.Converged {
		t.Fatal("metered push did not converge")
	}
	// Every node acts every round (degree >= 2 throughout on a cycle), so
	// IDs = 2 * n * rounds exactly.
	want := int64(2 * 16 * res.Rounds)
	if meter.IDs() != want {
		t.Fatalf("metered IDs %d want %d", meter.IDs(), want)
	}
	if p.Name() != "push+metered" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestNilMeterSafe(t *testing.T) {
	g := gen.Path(8)
	res := sim.Run(g, NameDropper{}, rng.New(6), sim.Config{})
	if !res.Converged {
		t.Fatal("nil-meter run failed")
	}
}

func TestBaselineNames(t *testing.T) {
	if (NameDropper{}).Name() != "name-dropper" {
		t.Fatal("name wrong")
	}
	if (RandomPointerJump{}).Name() != "pointer-jump" {
		t.Fatal("name wrong")
	}
}

func TestBaselinesSatisfyProcessInterfaces(t *testing.T) {
	var _ core.Process = NameDropper{}
	var _ core.Process = RandomPointerJump{}
	var _ core.Process = MeteredGossip{}
}
