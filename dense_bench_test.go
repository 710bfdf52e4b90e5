package gossipdisc_test

// Dense-phase scaling suite. The paper's O(n log² n) bound is dominated by
// the late rounds, where almost every proposal is a duplicate; the
// dense-phase engine mode (Config.DensePhase) samples the missing edges
// directly, so this suite measures exactly that regime: each benchmark
// pre-builds the graph state at 75% of a reference run's rounds and times
// driving the *final quartile* to completion, default act vs dense act.
// The two variants start from the identical graph; any ns/op gap is the
// engine mode. Baselines are recorded in BENCH_pr4.json (timed on a
// sharded layout that is gone); CI runs -bench=BenchmarkScale
// -benchtime=1x as a smoke test.

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

// lastQuartileState returns a cycle graph advanced to 3/4 of the rounds a
// default run needs to complete it, ready to be cloned per benchmark
// iteration.
func lastQuartileState(n int) *graph.Undirected {
	probe := gen.Cycle(n)
	ref := sim.Run(probe, core.Push{}, rng.New(uint64(n)), sim.Config{})
	if !ref.Converged {
		panic("dense bench: reference run did not converge")
	}
	g := gen.Cycle(n)
	s := sim.NewSession(g, core.Push{}, rng.New(uint64(n)), sim.Config{MaxRounds: ref.Rounds * 3 / 4})
	s.Run()
	s.Close()
	return g
}

func benchScaleDense(b *testing.B, n int) {
	start := lastQuartileState(n)
	for _, bc := range []struct {
		name  string
		dense float64
	}{
		{"default", 0},
		{"dense", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(uint64(n) + 7)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := start.Clone()
				res := sim.Run(g, core.Push{}, r.Split(), sim.Config{DensePhase: bc.dense})
				if !res.Converged {
					b.Fatal("final-quartile run did not converge")
				}
			}
		})
	}
}

func BenchmarkScaleDense512(b *testing.B)  { benchScaleDense(b, 512) }
func BenchmarkScaleDense1024(b *testing.B) { benchScaleDense(b, 1024) }
func BenchmarkScaleDense2048(b *testing.B) { benchScaleDense(b, 2048) }
