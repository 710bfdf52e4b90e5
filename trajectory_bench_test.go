package gossipdisc_test

// Trajectory-recording benchmarks for the streaming delta pipeline
// (BENCH_pr2.json). Each iteration runs one full push convergence on the
// n=1024 cycle — the E9/E17 recording shape — under two subscriber
// configurations:
//
//   - none: the engine alone, no observation (lower bound).
//   - delta: the streaming path. The commit emits the per-round delta it
//     already knows (new edges, degree increments, edges remaining), and a
//     subscribed metrics.Trajectory maintains the same trajectory
//     incrementally in O(new edges) per round, allocation-flat.
//
// CI runs these with -benchtime=1x as a smoke test alongside the scale
// suite (the BenchmarkScale prefix is shared on purpose).

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// runObserved is one push convergence of g with sub on the session's bus.
func runObserved(g *graph.Undirected, r *rng.Rand, sub stream.Subscriber) sim.Result {
	s := sim.NewSession(g, core.Push{}, r, sim.Config{})
	defer s.Close()
	s.Subscribe(sub)
	return s.Run()
}

func benchScaleTrajectory(b *testing.B, n int) {
	check := func(b *testing.B, res sim.Result, traj *metrics.Trajectory) {
		b.Helper()
		if !res.Converged {
			b.Fatal("run did not converge")
		}
		if traj != nil {
			traj.Finalize()
			if len(traj.GrowthEpochs(2, n)) == 0 {
				b.Fatal("trajectory did not cover the growth epochs")
			}
		}
	}

	b.Run("none", func(b *testing.B) {
		r := rng.New(uint64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := gen.Cycle(n)
			res := sim.Run(g, core.Push{}, r.Split(), sim.Config{})
			check(b, res, nil)
		}
	})

	b.Run("delta", func(b *testing.B) {
		r := rng.New(uint64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := gen.Cycle(n)
			traj := &metrics.Trajectory{}
			newEdges := 0
			res := runObserved(g, r.Split(), stream.SubscriberFunc(func(e *stream.Event) {
				traj.OnEvent(e)
				newEdges += len(e.Delta.NewEdges)
			}))
			check(b, res, traj)
			if newEdges != res.NewEdges {
				b.Fatal("delta stream incomplete")
			}
		}
	})
}

func BenchmarkScaleTrajectory1024(b *testing.B) { benchScaleTrajectory(b, 1024) }
