package experiments

import (
	"fmt"
	"math"
	"slices"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

// byzantine implements E21. Byzantine introducers perform push-shaped
// draws but funnel both introductions toward a target instead of
// introducing their sampled neighbors to each other, so the honest v–w
// edge is never proposed and the remaining honest nodes must carry
// discovery alone. The sweep measures rounds to the complete graph as the
// Byzantine fraction grows, against the all-honest baseline of the same
// size — robustness under active subversion rather than E12's passive
// failures. A second table pins the eclipse-style coalition (every
// Byzantine funnels toward one global hub) at the largest size.
//
// The workload is a dense connected random graph, resampled until the
// honest-induced subgraph is connected and every Byzantine node has an
// honest neighbor: on sparse topologies a Byzantine node at a cut vertex
// censors every cross-cut introduction and partitions discovery forever
// (on the n-cycle two spread Byzantines already suffice), so rounds to
// completion would be infinite rather than degraded. Those two conditions
// guarantee the honest nodes discover each other, then sweep the
// Byzantine nodes into the complete graph.
//
// With cfg.RoleSpec set (-roles), a third table runs the custom population
// over a push base, resolved against the sweep's largest size.
func byzantine(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(48, 64, 96)
	trials := cfg.trials(8)
	fracs := []int{0, 5, 10, 25}

	base := make(map[int]float64)
	var points []point
	for ni, n := range ns {
		for fi, f := range fracs {
			spec := ""
			if f > 0 {
				spec = fmt.Sprintf("byzantine=%d%%", f)
			}
			pop, err := core.ParseRoleSpec(spec, n, core.Push{})
			if err != nil {
				return nil, fmt.Errorf("E21 n=%d f=%d%%: %w", n, f, err)
			}
			points = append(points, point{
				cells:  []string{trace.I(n), trace.I(f), trace.I(len(byzantines(pop)))},
				rounds: byzantineRounds(cfg, trials, pointSeed(cfg.Seed, uint64(ni), uint64(fi), hashName("e21")), n, pop),
				tail: func(s stats.Summary) []string {
					if f == 0 {
						base[n] = s.Mean
					}
					return []string{trace.F(s.Mean/base[n], 2)}
				},
			})
		}
	}
	tbl := trace.NewTable(
		fmt.Sprintf("E21: push on ConnectedER (expected degree 8), self-promoting byzantine fraction (%d trials)", trials),
		"n", "byz %", "byz nodes", "rounds", "ci95", "slowdown")
	if _, err := sweep(tbl, points); err != nil {
		return nil, err
	}
	out := []*trace.Table{tbl}

	// The eclipse coalition: the same fractions, but every Byzantine node
	// funnels toward node 0 instead of itself — the role is retuned on a
	// live population via SetRoleProcess, exactly as a session caller
	// would do mid-run.
	n := ns[len(ns)-1]
	points = nil
	for fi, f := range fracs[1:] {
		pop, err := core.ParseRoleSpec(fmt.Sprintf("byzantine=%d%%", f), n, core.Push{})
		if err != nil {
			return out, fmt.Errorf("E21 hub f=%d%%: %w", f, err)
		}
		pop.SetRoleProcess("byzantine", core.Byzantine{Target: 0})
		points = append(points, point{
			cells:  []string{trace.I(f)},
			rounds: byzantineRounds(cfg, trials, pointSeed(cfg.Seed, 500+uint64(fi), hashName("e21-hub")), n, pop),
		})
	}
	hub, _, err := slowdownTable(
		fmt.Sprintf("E21: eclipse coalition — byzantines funnel toward node 0 (n=%d, %d trials)", n, trials),
		[]string{"byz %", "rounds", "ci95", "slowdown vs honest"}, base[n], points)
	if err != nil {
		return out, err
	}
	out = append(out, hub)

	if cfg.RoleSpec == "" {
		return out, nil
	}
	pop, err := core.ParseRoleSpec(cfg.RoleSpec, n, core.Push{})
	if err != nil {
		return out, fmt.Errorf("E21 custom population (resolved at n=%d): %w", n, err)
	}
	custom, _, err := slowdownTable(
		fmt.Sprintf("E21: custom population %q at n=%d (%d trials)", cfg.RoleSpec, n, trials),
		[]string{"population", "rounds", "ci95", "slowdown vs honest"}, base[n], []point{{
			cells:  []string{pop.Name()},
			rounds: byzantineRounds(cfg, trials, pointSeed(cfg.Seed, uint64(n), hashName("e21-custom")), n, pop),
		}})
	if err != nil {
		return out, fmt.Errorf("%w (not every population completes discovery — silent or selfish cut sets censor introductions forever)", err)
	}
	return append(out, custom), nil
}

// byzantines returns pop's Byzantine nodes, if it has that role.
func byzantines(pop *core.Population) []int {
	if slices.Contains(pop.Roles(), "byzantine") {
		return pop.Nodes("byzantine")
	}
	return nil
}

// byzantineRounds measures pop on byzantine workloads of n nodes
// (buildByzantineWorkload) for one sweep point.
func byzantineRounds(cfg Config, trials int, seed uint64, n int, pop *core.Population) func() (stats.Summary, error) {
	type workload struct {
		g   *graph.Undirected
		err error
	}
	byz := byzantines(pop)
	return measure(cfg, trials, seed, func(trial int, r *rng.Rand) workload {
		g, err := buildByzantineWorkload(n, byz, r)
		return workload{g, err}
	}, func(w workload, r *rng.Rand) outcome {
		if w.err != nil {
			return outcome{err: w.err}
		}
		return undirected(pop, sim.Config{})(w.g, r)
	})
}

// maxByzantineDraws bounds buildByzantineWorkload's resampling. The sweep's
// own workloads (at most a quarter Byzantine) take a few draws; a
// population that needs more is too Byzantine for the conditions to hold
// in practice.
const maxByzantineDraws = 1000

// buildByzantineWorkload samples a dense connected random graph whose
// honest-induced subgraph is connected and in which every Byzantine node
// has at least one honest neighbor, resampling until both hold (the same
// conditioning idiom as E12's crash workload). Together the two
// conditions guarantee push completes: the honest nodes discover each
// other through honest introducers alone, after which every Byzantine
// node's honest neighbors sweep it into the complete graph. It fails when
// no node is honest or after maxByzantineDraws draws.
func buildByzantineWorkload(n int, byz []int, r *rng.Rand) (*graph.Undirected, error) {
	isByz := make([]bool, n)
	for _, b := range byz {
		isByz[b] = true
	}
	var honest []int
	for i := 0; i < n; i++ {
		if !isByz[i] {
			honest = append(honest, i)
		}
	}
	if len(honest) == 0 {
		return nil, fmt.Errorf("all %d nodes are byzantine: no honest node to carry discovery", n)
	}
	var g *graph.Undirected
	var nbuf []int
	cutOff := func(b int) bool { // b has no honest neighbor in g
		nbuf = g.Neighbors(b, nbuf[:0])
		return !slices.ContainsFunc(nbuf, func(v int) bool { return !isByz[v] })
	}
	for range maxByzantineDraws {
		g = gen.ConnectedER(n, 8.0/float64(n), r)
		if len(byz) == 0 || g.InducedSubgraph(honest).IsConnected() && !slices.ContainsFunc(byz, cutOff) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%d of %d nodes byzantine: no draw in %d had a connected honest subgraph with an honest neighbor for every byzantine node",
		len(byz), n, maxByzantineDraws)
}

// anonymity implements E22: how well does the rumor's entry node hide
// from a passive eavesdropper coalition? The rumor enters at node 0 of an
// n-cycle running honest push; k eavesdroppers (honest behavior, spread
// over nodes 1..n-1 so the source never observes itself) replay the
// cascade from the delta stream and maintain a posterior over the entry
// node, weighting each witnessed infector by how early it reached the
// coalition. The table sweeps the coalition size and reports the
// posterior's entropy against the log2(n) prior, the probability mass on
// the true source against the 1/n prior, and the source's rank among the
// suspects. The expected shape is itself the finding: discovery spreads
// through introducers, not direct contact, so the entry node almost never
// infects a coalition member itself — larger coalitions witness more and
// earlier infections but mostly widen the suspect set (entropy and rank
// grow with k), a structural anonymity that classic epidemic
// source-identification heuristics do not break.
func anonymity(cfg Config) ([]*trace.Table, error) {
	n := 96
	trials := cfg.trials(12)
	coalitions := []int{1, 2, 4, 8, 16}
	prior := math.Log2(float64(n))

	tbl := trace.NewTable(
		fmt.Sprintf("E22: source anonymity of push on the n-cycle vs eavesdropper coalition size (n=%d, %d trials)", n, trials),
		"coalition", "entropy bits", "prior bits", "source prob", "1/n", "source rank", "witnesses")
	for ki, k := range coalitions {
		spec := fmt.Sprintf("eavesdropper=%d:1-%d", k, n-1)
		pop, err := core.ParseRoleSpec(spec, n, core.Push{})
		if err != nil {
			return nil, fmt.Errorf("E22 k=%d: %w", k, err)
		}
		coalition := pop.Nodes("eavesdropper")
		// Each trial returns its coalition's posterior, or nil if it did
		// not converge.
		results := sim.Trials(cfg.TrialWorkers, trials, pointSeed(cfg.Seed, uint64(ki), hashName("e22")), cycleBuilder(n),
			func(g *graph.Undirected, r *rng.Rand) *analyze.Anonymity {
				anon := analyze.NewAnonymity(0, coalition)
				if !observe(g, pop, r, sim.Config{}, anon).Converged {
					return nil
				}
				return anon
			})
		var ents, probs, ranks, wits []float64
		for t, anon := range results {
			if anon == nil {
				return nil, fmt.Errorf("E22 k=%d trial %d did not converge", k, t)
			}
			ents = append(ents, anon.PosteriorEntropy())
			probs = append(probs, anon.SourceProbability())
			ranks = append(ranks, float64(anon.SourceRank()))
			wits = append(wits, float64(anon.Witnesses()))
		}
		tbl.AddRow(trace.I(k),
			trace.F(stats.Mean(ents), 2), trace.F(prior, 2),
			trace.F(stats.Mean(probs), 3), trace.F(1/float64(n), 3),
			trace.F(stats.Mean(ranks), 1), trace.F(stats.Mean(wits), 1))
	}
	return []*trace.Table{tbl}, nil
}
