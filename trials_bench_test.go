package gossipdisc_test

// BenchmarkTrialsParallel* times a batch of sim.Run trials on sim.Trials
// with a strictly sequential trial pool against the default GOMAXPROCS
// pool — byte-identical outputs, so the gap is pure trial-level
// parallelism. This is the experiment suite's dominant shape (E10/E16 run
// 12–100 trials per sweep point).

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

func benchTrialsParallel(b *testing.B, numTrials, n int) {
	build := func(trial int, r *rng.Rand) *graph.Undirected { return gen.Cycle(n) }
	run := func(g *graph.Undirected, r *rng.Rand) sim.Result { return sim.Run(g, core.Push{}, r, sim.Config{}) }
	for _, bc := range []struct {
		name string
		pool int
	}{
		{"seq", 1},
		{"par", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, res := range sim.Trials(bc.pool, numTrials, uint64(n)+uint64(i), build, run) {
					if !res.Converged {
						b.Fatal("trial batch did not converge")
					}
				}
			}
		})
	}
}

func BenchmarkTrialsParallel64(b *testing.B)  { benchTrialsParallel(b, 64, 96) }
func BenchmarkTrialsParallel128(b *testing.B) { benchTrialsParallel(b, 128, 64) }
