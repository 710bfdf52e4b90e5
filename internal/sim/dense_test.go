package sim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
)

// This file tests the dense-phase engine mode (Config.DensePhase /
// DirectedConfig.DensePhase): the complement-sampling act phase, its
// goldens and its complement views. Its determinism and step-vs-run rows
// are in the conformance table.

// TestDenseGoldens pins the dense trajectory for both session types — the
// dense phase has goldens of its own, exactly as the default round does
// (TestDeterminismSequentialPathUnchanged). If these values move, the
// dense sampling order has changed.
func TestDenseGoldens(t *testing.T) {
	dcycle := func() *graph.Directed { return gen.DirectedCycle(24) }
	for _, gd := range []struct {
		row  simtest.Row
		want any
	}{
		{session("w=0", cycle(32), core.Push{}, 1, Config{DensePhase: 0.25}),
			Result{Rounds: 43, Converged: true, Proposals: 1183, NewEdges: 464, DuplicateProposals: 719}},
		{directed("directed/w=0", dcycle, core.DirectedTwoHop{}, 2, DirectedConfig{DensePhase: 0.5}),
			DirectedResult{Rounds: 30, Converged: true, Proposals: 686, NewArcs: 528, DuplicateProposals: 158, TargetArcs: 552}},
	} {
		if got := simtest.Run(t, gd.row).Result; got != gd.want {
			t.Fatalf("%s: dense golden moved: got %+v want %+v", gd.row.Name, got, gd.want)
		}
	}
}

// TestDenseOffKeepsLegacyGolden: with DensePhase zero the sequential
// engine must keep producing the exact seed-release trajectory — arming
// logic must not perturb the legacy paths.
func TestDenseOffKeepsLegacyGolden(t *testing.T) { checkLegacyGolden(t, Config{DensePhase: 0}) }

// TestDenseConvergesFaster: on a late-phase-heavy workload the dense phase
// converges in under half the rounds of the scan-all-nodes act, a collapse
// that no fast hardware can hide.
func TestDenseConvergesFaster(t *testing.T) {
	def := Run(gen.Cycle(256), core.Push{}, rng.New(3), Config{})
	den := Run(gen.Cycle(256), core.Push{}, rng.New(3), Config{DensePhase: 0.25})
	if !def.Converged || !den.Converged || den.Rounds*2 >= def.Rounds {
		t.Fatalf("dense mode not twice as fast: default %+v, dense %+v", def, den)
	}
}

// TestDensePhaseValidation: fractions outside [0, 1] panic at
// construction, for both session families.
func TestDensePhaseValidation(t *testing.T) { densePhaseOutOfRange(t, -0.1, 1.5) }

// TestDenseDirectedStaysInsideClosure: every arc a dense directed run
// inserts is an arc of the initial graph's transitive closure — the dense
// sampler must not let the run escape the invariant the termination
// counter is built on.
func TestDenseDirectedStaysInsideClosure(t *testing.T) {
	g := gen.RandomStronglyConnected(64, 24, rng.New(4))
	target := g.TransitiveClosure()
	if res := RunDirected(g, core.DirectedTwoHop{}, rng.New(5), DirectedConfig{DensePhase: 1}); !res.Converged || !g.IsClosed() {
		t.Fatalf("dense-from-round-1 directed run did not reach closure: %+v", res)
	}
	for _, a := range g.Arcs() {
		if !target[a.U].Test(a.V) {
			t.Fatalf("dense run inserted arc (%d,%d) outside the initial closure", a.U, a.V)
		}
	}
	g.CheckInvariants()
}

// TestDenseMissingDegreeDeltaViews: the O(1) per-node complement views on
// the deltas agree with brute-force recounts at every round, for both
// session families (the directed half is testDirectedMissingRowProperty).
func TestDenseMissingDegreeDeltaViews(t *testing.T) {
	g := gen.Cycle(48)
	s := NewSession(g, core.Push{}, rng.New(6), Config{DensePhase: 0.5})
	defer s.Close()
	for {
		d, more := s.Step()
		if d == nil {
			break
		}
		if d.MissingDegree == nil {
			t.Fatal("delta MissingDegree view not bound")
		}
		for u := 0; u < g.N(); u += 7 {
			got, want := d.MissingDegree(u), g.N()-1-g.Degree(u)
			if got != want {
				t.Fatalf("round %d node %d: delta MissingDegree %d want %d", d.Round, u, got, want)
			}
			if s.MissingDegree(u) != got {
				t.Fatalf("round %d node %d: session and delta views disagree", d.Round, u)
			}
		}
		if !more {
			break
		}
	}

	testDirectedMissingRowProperty(t, graph.BackendDense, 0.5)
}

// TestDirectedMissingRowProperty: the DirectedSession's per-node
// missing-closure counters equal a brute-force target &^ out recount after
// every committed round, dense and default, on both row backends. The
// brute-force side goes through OutRow — which on sparse is a materialized
// snapshot — so the test also pins that snapshot semantics stay correct.
func TestDirectedMissingRowProperty(t *testing.T) {
	for _, backend := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
		testDirectedMissingRowProperty(t, backend, 0, 0.6)
	}
}

// testDirectedMissingRowProperty checks the session's missing rows and the
// delta's view of them against the recount after every round.
func testDirectedMissingRowProperty(t *testing.T, backend graph.Backend, denses ...float64) {
	for _, dense := range denses {
		g := gen.RandomStronglyConnected(80, 30, rng.New(14), backend)
		target := g.TransitiveClosure()
		s := NewDirectedSession(g, core.DirectedTwoHop{}, rng.New(15),
			DirectedConfig{DensePhase: dense})
		for {
			d, more := s.Step()
			total := 0
			for u := 0; u < g.N(); u++ {
				want := target[u].DiffCount(g.OutRow(u))
				if got, view := s.MissingClosureDegree(u), d.MissingClosureDegree(u); got != want || view != want {
					t.Fatalf("dense=%v round %d node %d: missing row %d, delta view %d, want %d",
						dense, s.Round(), u, got, view, want)
				}
				total += want
			}
			if total != s.ClosureArcsRemaining() {
				t.Fatalf("dense=%v round %d: missing rows sum %d != counter %d",
					dense, s.Round(), total, s.ClosureArcsRemaining())
			}
			if !more {
				break
			}
		}
		if !s.Converged() {
			t.Fatalf("dense=%v: directed run did not converge", dense)
		}
		s.Close()
	}
}
