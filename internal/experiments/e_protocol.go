package experiments

import (
	"fmt"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/protocol"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/stream"
	"gossipdisc/internal/trace"
)

// protocols implements E13: it runs the message-level protocols, each
// round on one goroutine, next to the centralized simulator on identical
// workloads, checking that (a) round counts are consistent, (b) every
// message carries at most one ⌈log₂ n⌉-bit identifier — the paper's
// bandwidth model — and (c) Lemma 1 holds along the trajectory of random
// graphs.
func protocols(cfg Config) ([]*trace.Table, error) {
	n := 32
	trials := cfg.trials(20)

	tbl := trace.NewTable(
		fmt.Sprintf("E13: message-level protocol vs centralized simulator, cycle n=%d (%d trials)", n, trials),
		"process", "sim rounds", "proto rounds", "proto msgs/round/node", "ID bits/msg", "bound ⌈lg n⌉")
	for _, pr := range processes {
		seed := pointSeed(cfg.Seed, hashName(pr.name))
		simSum, err := pointRounds(cfg, trials, seed, cycleBuilder(n), undirected(pr.proc, sim.Config{}))
		if err != nil {
			return nil, fmt.Errorf("E13 sim %s: %w", pr.name, err)
		}

		// The wire trials seed their networks from the trial index, not
		// from the harness generator.
		type protoTrial struct {
			rounds int
			done   bool
			stats  netsim.Stats
		}
		protoTrials := sim.Trials(cfg.TrialWorkers, trials, seed, func(trial int, r *rng.Rand) *protocol.Cluster {
			return protocol.NewCluster(gen.Cycle(n), pr.wire, netsim.Config{Seed: seed + uint64(trial) + 1})
		}, func(cl *protocol.Cluster, r *rng.Rand) protoTrial {
			defer cl.Close()
			rounds, done := cl.Run(sim.DefaultMaxRounds(n))
			return protoTrial{rounds, done, cl.Net.Stats()}
		})
		var protoRounds []float64
		var msgsPerRoundPerNode, bitsPerMsg float64
		for trial, t := range protoTrials {
			if !t.done {
				return nil, fmt.Errorf("E13 proto %s trial %d: did not converge", pr.name, trial)
			}
			protoRounds = append(protoRounds, float64(t.rounds))
			msgsPerRoundPerNode += float64(t.stats.Sent) / float64(t.stats.Rounds) / float64(n)
			bitsPerMsg += float64(t.stats.IDBits) / float64(t.stats.Sent)
		}
		protoSum := stats.Summarize(protoRounds)
		msgsPerRoundPerNode /= float64(trials)
		bitsPerMsg /= float64(trials)

		idBits := netsim.New(n, netsim.Config{}).IDBits()
		if bitsPerMsg > float64(idBits) {
			return nil, fmt.Errorf("E13 %s: %.2f ID bits per message exceeds ⌈lg n⌉ = %d",
				pr.name, bitsPerMsg, idBits)
		}
		tbl.AddRow(pr.name,
			trace.F(simSum.Mean, 1), trace.F(protoSum.Mean, 1),
			trace.F(msgsPerRoundPerNode, 2),
			trace.F(bitsPerMsg, 2), trace.I(idBits))
	}

	// Lemma 1: |∪_{i=1..4} Nⁱ(u)| >= min{2δ, n−1}, checked at every node of
	// every round-10 snapshot of push runs on random trees.
	type lemmaCount struct{ checked, violations int }
	counts := sim.Trials(cfg.TrialWorkers, trials, pointSeed(cfg.Seed, 424242), func(trial int, r *rng.Rand) *graph.Undirected {
		return gen.RandomTree(24, r)
	}, func(g *graph.Undirected, r *rng.Rand) lemmaCount {
		var lc lemmaCount
		observe(g, core.Push{}, r, sim.Config{MaxRounds: 10}, stream.SubscriberFunc(func(e *stream.Event) {
			g := e.Graph
			bound := min(2*g.MinDegree(), g.N()-1)
			for u := 0; u < g.N(); u++ {
				lc.checked++
				if len(g.Ball(u, 4)) < bound {
					lc.violations++
				}
			}
		}))
		return lc
	})
	checked, violations := 0, 0
	for _, lc := range counts {
		checked += lc.checked
		violations += lc.violations
	}
	lem := trace.NewTable("E13: Lemma 1 checks along push trajectories on random trees",
		"node-rounds checked", "violations")
	lem.AddRow(trace.I(checked), trace.I(violations))
	if violations > 0 {
		return []*trace.Table{tbl}, fmt.Errorf("E13: Lemma 1 violated %d times", violations)
	}
	return []*trace.Table{tbl, lem}, nil
}
