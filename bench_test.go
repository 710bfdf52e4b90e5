package gossipdisc_test

// One benchmark per experiment in DESIGN.md's index (E1–E16). Each bench
// measures the cost of regenerating one representative sweep point of the
// corresponding table; `go test -bench=. -benchmem` therefore exercises the
// full reproduction surface. The experiment binaries (cmd/experiments)
// regenerate the full tables.

import (
	"io"
	"testing"

	"gossipdisc"
	"gossipdisc/internal/baseline"
	"gossipdisc/internal/churn"
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/experiments"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/markov"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/protocol"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

// BenchmarkE1PushConvergence measures push on a 128-node cycle (Theorem 8).
func BenchmarkE1PushConvergence(b *testing.B) {
	benchUndirected(b, core.Push{}, func(r *rng.Rand) *gossipdisc.Graph {
		return gen.Cycle(128)
	})
}

// BenchmarkE2PushLowerBound measures push on K_128 minus 64 edges (Thm 9).
func BenchmarkE2PushLowerBound(b *testing.B) {
	benchUndirected(b, core.Push{}, func(r *rng.Rand) *gossipdisc.Graph {
		return gen.NearComplete(128, 64, r)
	})
}

// BenchmarkE3PullConvergence measures pull on a 128-node cycle (Thm 12).
func BenchmarkE3PullConvergence(b *testing.B) {
	benchUndirected(b, core.Pull{}, func(r *rng.Rand) *gossipdisc.Graph {
		return gen.Cycle(128)
	})
}

// BenchmarkE4PullLowerBound measures pull on K_128 minus 64 edges (Thm 13).
func BenchmarkE4PullLowerBound(b *testing.B) {
	benchUndirected(b, core.Pull{}, func(r *rng.Rand) *gossipdisc.Graph {
		return gen.NearComplete(128, 64, r)
	})
}

// BenchmarkE5DirectedUpper measures the directed two-hop walk on a random
// strongly connected 48-node digraph (Theorem 14 upper bound).
func BenchmarkE5DirectedUpper(b *testing.B) {
	benchDirected(b, func(r *rng.Rand) *gossipdisc.Digraph {
		return gen.RandomStronglyConnected(48, 24, r)
	})
}

// BenchmarkE6WeakLower measures the Theorem 14 weakly connected lower-bound
// construction at n=48.
func BenchmarkE6WeakLower(b *testing.B) {
	benchDirected(b, func(r *rng.Rand) *gossipdisc.Digraph {
		return gen.Thm14WeakLowerBound(48)
	})
}

// BenchmarkE7StrongLower measures the Theorem 15 (Fig 3-4) strongly
// connected Ω(n²) construction at n=48.
func BenchmarkE7StrongLower(b *testing.B) {
	benchDirected(b, func(r *rng.Rand) *gossipdisc.Digraph {
		return gen.Thm15StrongLowerBound(48)
	})
}

// BenchmarkE8NonMonotonicity measures the exact Markov absorption-time
// solver on the Figure 1(c) witness pair.
func BenchmarkE8NonMonotonicity(b *testing.B) {
	g, h := gen.NonMonotonePair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eg := markov.ExpectedTime(g, markov.PushKernel{})
		eh := markov.ExpectedTime(h, markov.PushKernel{})
		if eg <= eh {
			b.Fatal("non-monotonicity vanished")
		}
	}
}

// BenchmarkE9MinDegreeGrowth measures a push run with full min-degree
// trajectory recording on a 128-node cycle (the Thm 8/12 proof engine).
// Like the E9 experiment it subscribes the trajectory to the session's
// delta stream; BenchmarkScaleTrajectory1024 compares this path against
// snapshot scanning.
func BenchmarkE9MinDegreeGrowth(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gen.Cycle(128)
		traj := &metrics.Trajectory{}
		res := runObserved(g, r.Split(), traj)
		if !res.Converged || len(traj.GrowthEpochs(2, 128)) == 0 {
			b.Fatal("growth trajectory failed")
		}
	}
}

// BenchmarkE10Subgroup measures subgroup discovery on an induced 32-subset
// of a 512-node host graph.
func BenchmarkE10Subgroup(b *testing.B) {
	r := rng.New(2)
	host := gen.TwoClustersBridge(512, 6.0/512, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// BFS ball of 32 nodes, then run push restricted to it.
		picked := host.Ball(r.Intn(host.N()), 3)
		if len(picked) > 32 {
			picked = picked[:32]
		}
		sub := host.InducedSubgraph(picked)
		if !sub.IsConnected() {
			continue
		}
		res := sim.Run(sub, core.Push{}, r.Split(), sim.Config{})
		if !res.Converged {
			b.Fatal("subgroup run failed")
		}
	}
}

// BenchmarkE11Baselines measures Name Dropper (the Θ(n)-bit baseline) on
// the same 128-cycle used for E1, exposing the rounds-vs-bits trade.
func BenchmarkE11Baselines(b *testing.B) {
	meter := &baseline.IDMeter{}
	benchUndirected(b, baseline.NameDropper{Meter: meter}, func(r *rng.Rand) *gossipdisc.Graph {
		return gen.Cycle(128)
	})
}

// BenchmarkE12Robustness measures push under 30% connection failures.
func BenchmarkE12Robustness(b *testing.B) {
	benchUndirected(b, core.Wrap(core.Push{}, core.Fail(0.3)),
		func(r *rng.Rand) *gossipdisc.Graph { return gen.Cycle(96) })
}

// BenchmarkE13Protocol measures the message-level push protocol on a
// 32-node cycle.
func BenchmarkE13Protocol(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := protocol.NewCluster(gen.Cycle(32), protocol.ProtoPush,
			netsim.Config{Seed: uint64(i) + 1})
		if _, done := cl.Run(sim.DefaultMaxRounds(32)); !done {
			b.Fatal("protocol run failed")
		}
	}
}

// BenchmarkE14Churn measures 200 rounds of a 48-member churn session at
// one membership change per round.
func BenchmarkE14Churn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := churn.NewSession(churn.Config{
			Capacity:       48 + 220,
			InitialMembers: 48,
			SeedDegree:     3,
			Rate:           1,
		}, rng.New(uint64(i)+1))
		s.Run(200)
	}
}

// BenchmarkE15Ablation measures the asynchronous runtime against which E15
// compares the synchronous engine.
func BenchmarkE15Ablation(b *testing.B) {
	r := rng.New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gen.Cycle(128)
		res := eventsim.Run(g, core.Push{}, r.Split(), eventsim.Config{})
		if !res.Converged {
			b.Fatal("async run failed")
		}
	}
}

// BenchmarkE16Concentration measures a 20-trial distribution batch (the
// E16 building block).
func BenchmarkE16Concentration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results := sim.Trials(0, 20, uint64(i)+1, func(trial int, r *rng.Rand) *gossipdisc.Graph {
			return gen.Cycle(64)
		}, func(g *gossipdisc.Graph, r *rng.Rand) sim.Result { return sim.Run(g, core.Push{}, r, sim.Config{}) })
		for _, res := range results {
			if !res.Converged {
				b.Fatal("trial batch failed")
			}
		}
	}
}

// BenchmarkExperimentHarness runs the full E8 experiment (the cheapest
// registered experiment) end to end, covering the harness overhead.
func BenchmarkExperimentHarness(b *testing.B) {
	e, err := experiments.ByID("E8")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(experiments.Config{Seed: 1, Trials: 50}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUndirected runs one full convergence per iteration.
func benchUndirected(b *testing.B, p core.Process, build func(r *rng.Rand) *gossipdisc.Graph) {
	b.Helper()
	r := rng.New(uint64(b.N))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := build(r)
		res := sim.Run(g, p, r.Split(), sim.Config{})
		if !res.Converged {
			b.Fatal("run did not converge")
		}
	}
}

// benchDirected runs one full directed termination per iteration.
func benchDirected(b *testing.B, build func(r *rng.Rand) *gossipdisc.Digraph) {
	b.Helper()
	r := rng.New(uint64(b.N))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := build(r)
		res := sim.RunDirected(g, core.DirectedTwoHop{}, r.Split(), sim.DirectedConfig{})
		if !res.Converged {
			b.Fatal("run did not converge")
		}
	}
}
