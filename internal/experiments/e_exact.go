package experiments

import (
	"fmt"
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/markov"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/trace"
)

// nonMonotonicity implements E8. Three parts:
//
//  1. The Figure 1(c) caption pair — the 4-edge paw versus its 3-edge
//     triangle subgraph — with exact expected times under both kernels.
//  2. The exhaustively verified spanning witness: K₄ minus an edge versus
//     the 4-cycle obtained by deleting one more edge, where the *larger*
//     graph is strictly slower under push.
//  3. A Monte-Carlo cross-check of every exact number (validating that the
//     simulator and the exact solver implement the same process).
func nonMonotonicity(cfg Config) ([]*trace.Table, error) {
	trials := cfg.trials(3000)

	g, h := gen.NonMonotonePair()
	rows := []struct {
		name  string
		build func() *graph.Undirected
	}{
		{"paw (Fig 1c, 4 edges)", gen.Fig1cGraph},
		{"triangle (Fig 1c sub, 3 edges)", gen.Fig1cSubgraph},
		{"K4 minus e (5 edges)", func() *graph.Undirected { return g.Clone() }},
		{"C4 = K4-e minus e (4 edges)", func() *graph.Undirected { return h.Clone() }},
	}

	tbl := trace.NewTable(
		fmt.Sprintf("E8: exact expected rounds vs Monte-Carlo means (%d trials)", trials),
		"graph", "kernel", "exact E[T]", "exact σ[T]", "monte-carlo", "abs err")
	for _, row := range rows {
		for _, k := range []struct {
			kern markov.Kernel
			proc core.Process
		}{
			{markov.PushKernel{}, core.Push{}},
			{markov.PullKernel{}, core.Pull{}},
		} {
			moments := markov.ExpectedMoments(row.build(), k.kern)
			exact := moments.Mean
			sigma := math.Sqrt(moments.Variance)
			seed := pointSeed(cfg.Seed, hashName(row.name), hashName(k.kern.Name()))
			sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
				return row.build()
			}, undirected(k.proc, sim.Config{}))
			if err != nil {
				return nil, fmt.Errorf("E8 %s/%s: %w", row.name, k.kern.Name(), err)
			}
			diff := sum.Mean - exact
			if diff < 0 {
				diff = -diff
			}
			tbl.AddRow(row.name, k.kern.Name(),
				trace.F(exact, 4), trace.F(sigma, 4), trace.F(sum.Mean, 4), trace.F(diff, 4))
		}
	}

	// Exhaustive sweep: count non-monotone (G, G−e) pairs among all
	// connected 4-node graphs under the push kernel.
	const n = 4
	total, nonMono := 0, 0
	worstGap := 0.0
	for s := markov.State(0); s <= markov.CompleteState(n); s++ {
		gg := markov.Decode(s, n)
		if !gg.IsConnected() || gg.IsComplete() {
			continue
		}
		eg := markov.ExpectedTime(gg, markov.PushKernel{})
		for _, e := range gg.Edges() {
			hs := s &^ (1 << markov.PairIndex(n, e.U, e.V))
			hh := markov.Decode(hs, n)
			if !hh.IsConnected() {
				continue
			}
			total++
			eh := markov.ExpectedTime(hh, markov.PushKernel{})
			if eg > eh+1e-9 {
				nonMono++
				worstGap = max(worstGap, eg-eh)
			}
		}
	}
	exhaustive := trace.NewTable("E8: exhaustive (G, G−e) sweep on 4 nodes, push kernel",
		"pairs checked", "non-monotone pairs", "largest E[G]−E[G−e] gap")
	exhaustive.AddRow(trace.I(total), trace.I(nonMono), trace.F(worstGap, 4))
	return []*trace.Table{tbl, exhaustive}, nil
}
