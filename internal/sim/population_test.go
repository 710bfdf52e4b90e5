package sim

import (
	"fmt"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
)

// This file pins the population layer's determinism contract on the
// synchronous engines; TestPopulationStepZeroAlloc is in the conformance
// table's allocation checks.

// TestPopulationUniformByteIdentity: a Population with no roles assigned
// gives the bare process's Result and delta stream with the dense phase
// off and on, so wrapping every run in one is free. A bare Push or Pull
// takes its block act, ActRange; a uniform Population acts node by node
// through the same process, and the two must agree. Workers is ignored, so
// the w=1 and w=4 rows run the same round as w=0; they stay until the
// field goes (ROADMAP item 1).
func TestPopulationUniformByteIdentity(t *testing.T) {
	const n = 96
	cases := []struct {
		name string
		p    core.Process
		b    graph.Backend
	}{
		{"push", core.Push{}, graph.BackendDense},
		{"pull/dense", core.Pull{}, graph.BackendDense},
		{"pull/sparse", core.Pull{}, graph.BackendSparse},
	}
	for _, workers := range []int{0, 1, 4} {
		for _, dense := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("w=%d/dense=%v", workers, dense), func(t *testing.T) {
				for _, tc := range cases {
					// Defining (but not assigning) roles must change nothing.
					defined := core.NewPopulation(n, tc.p)
					defined.DefineRole("byzantine", core.Byzantine{Target: -1})
					cfg := Config{Workers: workers, DensePhase: dense}
					converged(t, simtest.Identical(t,
						session(tc.name, cycle(n, tc.b), tc.p, 3000+n, cfg),
						session(tc.name+"/population", cycle(n, tc.b), core.NewPopulation(n, tc.p), 3000+n, cfg),
						session(tc.name+"/defined-role", cycle(n, tc.b), defined, 3000+n, cfg)))
				}
			})
		}
	}
}

// TestPopulationUniformByteIdentityDirected is the directed twin: a bare
// DirectedTwoHop takes its block act, a uniform DirectedPopulation acts
// node by node, and Result and delta stream must be the same with the
// dense phase off and on.
func TestPopulationUniformByteIdentityDirected(t *testing.T) {
	const n = 96
	build := func() *graph.Directed { return gen.RandomStronglyConnected(n, n/2, rng.New(7000+n)) }
	for _, workers := range []int{0, 1, 4} {
		for _, dense := range []float64{0, 0.5} {
			t.Run(fmt.Sprintf("w=%d/dense=%v", workers, dense), func(t *testing.T) {
				cfg := DirectedConfig{Workers: workers, DensePhase: dense}
				converged(t, simtest.Identical(t,
					directed("bare", build, core.DirectedTwoHop{}, 2000+n, cfg),
					directed("population", build, core.NewDirectedPopulation(n, core.DirectedTwoHop{}), 2000+n, cfg)))
			})
		}
	}
}

// TestPopulationBitReplay: a mixed population replays bit-identically
// from (seed, roles), run after run on the one population value, and the
// roles actually bite: the uniform trajectory differs.
func TestPopulationBitReplay(t *testing.T) {
	const n = 128
	bounded := func(name string, p core.Process) simtest.Row {
		return session(name, cycle(n), p, 99, Config{MaxRounds: 200, Done: func(*graph.Undirected) bool { return false }})
	}
	pop, err := core.ParseRoleSpec("honest,byzantine=5%,selfish=10:0-99,silent=3", n, core.Push{})
	if err != nil {
		t.Fatal(err)
	}
	want := simtest.Identical(t, bounded("first", pop), bounded("replay", pop))
	if simtest.Run(t, bounded("uniform", core.Push{})).Hash == want.Hash {
		t.Fatal("mixed population produced the uniform trajectory — roles had no effect")
	}
}

// TestPopulationMutationDeterministic drives two sessions through the
// same step/mutate schedule — retuning a role class and overriding
// individual nodes between steps — and requires identical trajectories. Mutation between steps is part of the
// determinism contract (mirroring eventsim's RateMap mid-run retuning).
func TestPopulationMutationDeterministic(t *testing.T) {
	const n = 96
	trajectory := func() simtest.Outcome {
		pop, err := core.ParseRoleSpec("byzantine=8,selfish=4:0-31", n, core.Push{})
		if err != nil {
			t.Fatal(err)
		}
		s := steady(gen.Cycle(n), pop, 7, Config{})
		defer s.Close()
		rt, fp := simtest.Undirected(s), simtest.NewFingerprint()
		for step := 0; step < 60; step++ {
			switch step {
			case 10:
				// The Byzantine coalition converts to a global hub mid-run.
				pop.SetRoleProcess("byzantine", core.Byzantine{Target: 0})
			case 25:
				pop.SetNodeProcess(40, core.Silent{})
				pop.SetNodeProcess(41, core.Selfish{})
			case 45:
				pop.SetNodeProcess(40, nil) // back to the default
				pop.SetRoleProcess("selfish", core.Push{})
			}
			e, _ := rt.Step()
			fp.OnEvent(e)
		}
		return simtest.Outcome{Result: s.Stats(), Hash: fp.Sum}
	}
	if got, want := trajectory(), trajectory(); got != want {
		t.Fatalf("replay: %+v %#x, first run: %+v %#x", got.Result, got.Hash, want.Result, want.Hash)
	}
}

// BenchmarkPopulationStep compares the steady-state round cost of a bare
// process against uniform and mixed populations — the dispatch overhead
// the population layer keeps at one slice index plus an interface call.
func BenchmarkPopulationStep(b *testing.B) {
	const n = 256
	bench := func(b *testing.B, p core.Process) {
		s := steady(gen.Complete(n), p, 17, Config{})
		defer s.Close()
		s.Step()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	}
	b.Run("bare", func(b *testing.B) { bench(b, core.Push{}) })
	b.Run("uniform-population", func(b *testing.B) {
		bench(b, core.NewPopulation(n, core.Push{}))
	})
	b.Run("mixed-population", func(b *testing.B) {
		pop, err := core.ParseRoleSpec("byzantine=5%,selfish=5%", n, core.Push{})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, pop)
	})
}
