package gossipdisc_test

// Large-n scaling suite for the synchronous round. Each benchmark runs one
// full convergence per iteration. Baselines are recorded in BENCH_pr1.json
// (its "seq" and "par" rows timed a sharded layout that is gone; "legacy"
// is the layout every round runs now); CI smokes every BenchmarkScale*
// suite at -benchtime=1x (this one, trajectory, session/churn and the
// dense phase).

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

func benchScalePush(b *testing.B, n int) {
	r := rng.New(uint64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gen.Cycle(n)
		if res := sim.Run(g, core.Push{}, r.Split(), sim.Config{}); !res.Converged {
			b.Fatal("run did not converge")
		}
	}
}

func BenchmarkScalePush512(b *testing.B)  { benchScalePush(b, 512) }
func BenchmarkScalePush1024(b *testing.B) { benchScalePush(b, 1024) }
func BenchmarkScalePush2048(b *testing.B) { benchScalePush(b, 2048) }

func benchScaleDirected(b *testing.B, n int) {
	r := rng.New(uint64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gen.RandomStronglyConnected(n, n/2, r)
		if res := sim.RunDirected(g, core.DirectedTwoHop{}, r.Split(), sim.DirectedConfig{}); !res.Converged {
			b.Fatal("run did not converge")
		}
	}
}

func BenchmarkScaleDirected128(b *testing.B) { benchScaleDirected(b, 128) }
func BenchmarkScaleDirected256(b *testing.B) { benchScaleDirected(b, 256) }
