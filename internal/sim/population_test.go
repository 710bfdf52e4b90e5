package sim

import (
	"fmt"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file pins the population layer's determinism contract on the
// synchronous engines: a uniform Population is byte-identical to the bare
// process it wraps (Result and delta stream, for every engine family and
// dense-phase setting), a mixed population replays bit-for-bit from
// (seed, roles) on every sharded schedule, and uniform-population
// dispatch adds no allocations to the steady-state round.

// populationFingerprint runs one full discovery over a cycle graph with
// the given process and returns the Result plus the delta-stream hash.
func populationFingerprint(p core.Process, b graph.Backend, n, workers int, densePhase float64) (Result, uint64) {
	g := gen.Cycle(n, b)
	dh := newDeltaHash()
	res := runWith(g, p, rng.New(uint64(3000+n)), Config{
		Workers:    workers,
		DensePhase: densePhase,
	}, dh)
	return res, dh.h
}

// TestPopulationUniformByteIdentity: a Population with no roles assigned
// must be indistinguishable from the bare default process — same Result,
// same delta stream — under the sequential engine, the sharded engine,
// and the dense phase. This is the population layer's compatibility pin:
// wrapping every run in a Population is free. It is also where the block
// acts meet their definition inside a real session: a bare Push or Pull
// takes ActRange, a uniform Population has none and acts node by node
// through the same process, and the two must agree.
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
			workers, dense := workers, dense
			t.Run(fmt.Sprintf("w=%d/dense=%v", workers, dense), func(t *testing.T) {
				for _, tc := range cases {
					wantRes, wantHash := populationFingerprint(tc.p, tc.b, n, workers, dense)
					if !wantRes.Converged {
						t.Fatalf("%s: bare run did not converge", tc.name)
					}
					pop := core.NewPopulation(n, tc.p)
					res, h := populationFingerprint(pop, tc.b, n, workers, dense)
					if res != wantRes {
						t.Fatalf("%s: uniform population diverged:\n bare: %+v\n pop:  %+v", tc.name, wantRes, res)
					}
					if h != wantHash {
						t.Fatalf("%s: uniform population delta stream diverged (hash %x vs %x)", tc.name, h, wantHash)
					}
					// Defining (but not assigning) roles must change nothing.
					pop2 := core.NewPopulation(n, tc.p)
					pop2.DefineRole("byzantine", core.Byzantine{Target: -1})
					res2, h2 := populationFingerprint(pop2, tc.b, n, workers, dense)
					if res2 != wantRes || h2 != wantHash {
						t.Fatalf("%s: defining an unassigned role perturbed the run", tc.name)
					}
				}
			})
		}
	}
}

// TestPopulationUniformByteIdentityDirected is the directed twin: a bare
// DirectedTwoHop takes its block act, a uniform DirectedPopulation acts
// node by node, and Result and delta stream must be the same on every
// engine family with the dense phase off and on.
func TestPopulationUniformByteIdentityDirected(t *testing.T) {
	const n = 96
	for _, workers := range []int{0, 1, 4} {
		for _, dense := range []float64{0, 0.5} {
			t.Run(fmt.Sprintf("w=%d/dense=%v", workers, dense), func(t *testing.T) {
				wantRes, wantHash := runDirectedFingerprint(core.DirectedTwoHop{}, graph.BackendDense, n, workers, dense)
				if !wantRes.Converged {
					t.Fatal("bare directed run did not converge")
				}
				pop := core.NewDirectedPopulation(n, core.DirectedTwoHop{})
				res, h := runDirectedFingerprint(pop, graph.BackendDense, n, workers, dense)
				if res != wantRes {
					t.Fatalf("uniform directed population diverged:\n bare: %+v\n pop:  %+v", wantRes, res)
				}
				if h != wantHash {
					t.Fatalf("uniform directed population delta stream diverged (hash %x vs %x)", h, wantHash)
				}
			})
		}
	}
}

// TestPopulationBitReplay: a mixed population replays bit-identically
// from (seed, roles) at every Workers >= 1 — the sharded engines share
// one per-shard stream layout, so the schedule cannot leak into the
// trajectory even when nodes run different behaviors.
func TestPopulationBitReplay(t *testing.T) {
	const n = 128
	const spec = "honest,byzantine=5%,selfish=10:0-99,silent=3"
	mixed := func(workers int) (Result, uint64) {
		pop, err := core.ParseRoleSpec(spec, n, core.Push{})
		if err != nil {
			t.Fatal(err)
		}
		g := gen.Cycle(n)
		dh := newDeltaHash()
		res := runWith(g, pop, rng.New(99), Config{
			Workers:   workers,
			MaxRounds: 200,
			Done:      func(*graph.Undirected) bool { return false },
		}, dh)
		return res, dh.h
	}
	wantRes, wantHash := mixed(1)
	for _, workers := range []int{2, 4, 7} {
		res, h := mixed(workers)
		if res != wantRes {
			t.Fatalf("workers=%d mixed Result diverged:\n w1: %+v\n w%d: %+v", workers, wantRes, workers, res)
		}
		if h != wantHash {
			t.Fatalf("workers=%d mixed delta stream diverged (hash %x vs %x)", workers, h, wantHash)
		}
	}
	// And the whole thing replays: same (seed, roles), same bytes.
	res, h := mixed(4)
	if res != wantRes || h != wantHash {
		t.Fatal("replay from (seed, roles) diverged")
	}
	// The roles actually bite: the uniform trajectory must differ.
	g := gen.Cycle(n)
	dh := newDeltaHash()
	runWith(g, core.Push{}, rng.New(99), Config{
		Workers: 1, MaxRounds: 200,
		Done: func(*graph.Undirected) bool { return false },
	}, dh)
	if dh.h == wantHash {
		t.Fatal("mixed population produced the uniform trajectory — roles had no effect")
	}
}

// TestPopulationMutationDeterministic drives two sessions through the
// same step/mutate schedule — retuning a role class and overriding
// individual nodes between steps — on different worker counts, and
// requires identical trajectories. Mutation between steps is part of the
// determinism contract (mirroring eventsim's RateMap mid-run retuning).
func TestPopulationMutationDeterministic(t *testing.T) {
	const n = 96
	trajectory := func(workers int) (Result, uint64) {
		pop, err := core.ParseRoleSpec("byzantine=8,selfish=4:0-31", n, core.Push{})
		if err != nil {
			t.Fatal(err)
		}
		g := gen.Cycle(n)
		dh := newDeltaHash()
		s := NewSession(g, pop, rng.New(7), Config{
			Workers:   workers,
			MaxRounds: -1,
			Done:      func(*graph.Undirected) bool { return false },
		})
		defer s.Close()
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
			d, _ := s.Step()
			dh.observe(g, d)
		}
		return s.Stats(), dh.h
	}
	wantRes, wantHash := trajectory(1)
	for _, workers := range []int{2, 4} {
		res, h := trajectory(workers)
		if res != wantRes {
			t.Fatalf("workers=%d mutated Result diverged:\n w1: %+v\n w%d: %+v", workers, wantRes, workers, res)
		}
		if h != wantHash {
			t.Fatalf("workers=%d mutated trajectory diverged (hash %x vs %x)", workers, h, wantHash)
		}
	}
}

// TestPopulationStepZeroAlloc pins the uniform-dispatch cost: stepping a
// session whose process is a uniform Population allocates nothing in
// steady state, exactly like the bare process. Skipped under -race
// (instrumentation allocates).
func TestPopulationStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	g := gen.Complete(64) // complete: rounds propose only duplicates
	pop := core.NewPopulation(64, core.Push{})
	s := NewSession(g, pop, rng.New(13), Config{
		MaxRounds: -1,
		Done:      func(*graph.Undirected) bool { return false },
	})
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Step() // warm the round buffers
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("uniform-population Step allocates %v per round in steady state, want 0", allocs)
	}
}

// BenchmarkPopulationStep compares the steady-state round cost of a bare
// process against uniform and mixed populations — the dispatch overhead
// the tentpole promises to keep at one slice index plus an interface call.
func BenchmarkPopulationStep(b *testing.B) {
	const n = 256
	bench := func(b *testing.B, p core.Process) {
		g := gen.Complete(n)
		s := NewSession(g, p, rng.New(17), Config{
			MaxRounds: -1,
			Done:      func(*graph.Undirected) bool { return false },
		})
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
