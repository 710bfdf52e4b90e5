package experiments

import (
	"fmt"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/trace"
)

// headToHead implements E18. Theorems 8 and 12 give push and pull the
// same asymptotic bound; the interesting residual question is the
// constants: which process is faster on which topology, and what the
// natural combined protocol (every node does both actions each round) buys.
// Push degrades on high-degree hubs (the hub's two samples rarely include a
// given pendant pair) while pull thrives on them (every spoke reaches the
// hub's whole neighborhood in two hops); trees and cycles are a dead heat.
func headToHead(cfg Config) ([]*trace.Table, error) {
	n := 128
	trials := cfg.trials(12)
	families := []string{"path", "cycle", "star", "bintree", "wheel", "broom", "er-sparse"}

	tbl := trace.NewTable(
		fmt.Sprintf("E18: mean rounds to complete, n=%d (%d trials)", n, trials),
		"family", "push", "pull", "push-pull", "pull/push", "combined speedup")
	for fi, famName := range families {
		fam, err := gen.FamilyByName(famName)
		if err != nil {
			return nil, err
		}
		means := map[string]float64{}
		for pi, proc := range []core.Process{core.Push{}, core.Pull{}, core.PushPull{}} {
			seed := pointSeed(cfg.Seed, uint64(fi), uint64(pi), 1818)
			sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
				return fam.Generate(n, r)
			}, undirected(proc, sim.Config{}))
			if err != nil {
				return nil, fmt.Errorf("E18 %s/%s: %w", famName, proc.Name(), err)
			}
			means[proc.Name()] = sum.Mean
		}
		best := min(means["push"], means["pull"])
		tbl.AddRow(famName,
			trace.F(means["push"], 1),
			trace.F(means["pull"], 1),
			trace.F(means["push-pull"], 1),
			trace.F(means["pull"]/means["push"], 2),
			trace.F(best/means["push-pull"], 2))
	}
	return []*trace.Table{tbl}, nil
}
