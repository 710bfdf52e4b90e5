package experiments

import (
	"fmt"
	"io"
	"math"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Byzantine introducers: discovery degradation vs adversarial fraction",
		Paper: "Roles pack; Section 6 robustness discussion extended to adversaries",
		Run:   runByzantine,
	})
	register(Experiment{
		ID:    "E22",
		Title: "Source anonymity: eavesdropper coalition posterior vs coalition size",
		Paper: "Roles pack; anonymity of the rumor's entry node under observation",
		Run:   runAnonymity,
	})
}

// runByzantine implements E21. Byzantine introducers perform push-shaped
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
func runByzantine(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ns := cfg.sizes(48, 64, 96)
	trials := cfg.trials(8)
	fracs := []int{0, 5, 10, 25}

	base := make(map[int]float64)
	tbl := trace.NewTable(
		fmt.Sprintf("E21: push on ConnectedER (expected degree 8), self-promoting byzantine fraction (%d trials)", trials),
		"n", "byz %", "byz nodes", "rounds", "ci95", "slowdown")
	for ni, n := range ns {
		for fi, f := range fracs {
			spec := ""
			if f > 0 {
				spec = fmt.Sprintf("byzantine=%d%%", f)
			}
			pop, err := core.ParseRoleSpec(spec, n, core.Push{})
			if err != nil {
				return fmt.Errorf("E21 n=%d f=%d%%: %w", n, f, err)
			}
			var byz []int
			if f > 0 {
				byz = pop.Nodes("byzantine")
			}
			seed := pointSeed(cfg.Seed, uint64(ni), uint64(fi), hashName("e21"))
			sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
				return buildByzantineWorkload(n, byz, r)
			}, undirected(pop, cfg.engine()))
			if err != nil {
				return fmt.Errorf("E21 n=%d f=%d%%: %w", n, f, err)
			}
			if f == 0 {
				base[n] = sum.Mean
			}
			tbl.AddRow(trace.I(n), trace.I(f), trace.I(len(byz)),
				trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base[n], 2))
		}
	}
	if err := render(cfg, w, tbl); err != nil {
		return err
	}

	// The eclipse coalition: the same fractions, but every Byzantine node
	// funnels toward node 0 instead of itself — the role is retuned on a
	// live population via SetRoleProcess, exactly as a session caller
	// would do mid-run.
	n := ns[len(ns)-1]
	hub := trace.NewTable(
		fmt.Sprintf("E21: eclipse coalition — byzantines funnel toward node 0 (n=%d, %d trials)", n, trials),
		"byz %", "rounds", "ci95", "slowdown vs honest")
	for fi, f := range fracs[1:] {
		pop, err := core.ParseRoleSpec(fmt.Sprintf("byzantine=%d%%", f), n, core.Push{})
		if err != nil {
			return fmt.Errorf("E21 hub f=%d%%: %w", f, err)
		}
		pop.SetRoleProcess("byzantine", core.Byzantine{Target: 0})
		byz := pop.Nodes("byzantine")
		seed := pointSeed(cfg.Seed, 500+uint64(fi), hashName("e21-hub"))
		sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
			return buildByzantineWorkload(n, byz, r)
		}, undirected(pop, cfg.engine()))
		if err != nil {
			return fmt.Errorf("E21 hub f=%d%%: %w", f, err)
		}
		hub.AddRow(trace.I(f), trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
			trace.F(sum.Mean/base[n], 2))
	}
	if err := render(cfg, w, hub); err != nil {
		return err
	}

	if cfg.RoleSpec == "" {
		return nil
	}
	pop, err := core.ParseRoleSpec(cfg.RoleSpec, n, core.Push{})
	if err != nil {
		return fmt.Errorf("E21 custom population (resolved at n=%d): %w", n, err)
	}
	custom := trace.NewTable(
		fmt.Sprintf("E21: custom population %q at n=%d (%d trials)", cfg.RoleSpec, n, trials),
		"population", "rounds", "ci95", "slowdown vs honest")
	var byz []int
	for _, role := range pop.Roles() {
		if role == "byzantine" {
			byz = pop.Nodes("byzantine")
		}
	}
	seed := pointSeed(cfg.Seed, uint64(n), hashName("e21-custom"))
	sum, err := pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *graph.Undirected {
		return buildByzantineWorkload(n, byz, r)
	}, undirected(pop, cfg.engine()))
	if err != nil {
		return fmt.Errorf("E21 custom population %q (not every population completes discovery — silent or selfish cut sets censor introductions forever): %w", cfg.RoleSpec, err)
	}
	custom.AddRow(pop.Name(), trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
		trace.F(sum.Mean/base[n], 2))
	return render(cfg, w, custom)
}

// buildByzantineWorkload samples a dense connected random graph whose
// honest-induced subgraph is connected and in which every Byzantine node
// has at least one honest neighbor, resampling until both hold (the same
// conditioning idiom as E12's crash workload). Together the two
// conditions guarantee push completes: the honest nodes discover each
// other through honest introducers alone, after which every Byzantine
// node's honest neighbors sweep it into the complete graph.
func buildByzantineWorkload(n int, byz []int, r *rng.Rand) *graph.Undirected {
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
	var nbuf []int
	for {
		g := gen.ConnectedER(n, 8.0/float64(n), r)
		if len(byz) == 0 {
			return g
		}
		if !g.InducedSubgraph(honest).IsConnected() {
			continue
		}
		ok := true
		for _, b := range byz {
			hasHonest := false
			nbuf = g.Neighbors(b, nbuf[:0])
			for _, v := range nbuf {
				if !isByz[v] {
					hasHonest = true
					break
				}
			}
			if !hasHonest {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
}

// runAnonymity implements E22: how well does the rumor's entry node hide
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
func runAnonymity(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
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
			return fmt.Errorf("E22 k=%d: %w", k, err)
		}
		coalition := pop.Nodes("eavesdropper")
		type trial struct {
			anon      *analyze.Anonymity
			converged bool
		}
		results := sim.Trials(cfg.TrialWorkers, trials, pointSeed(cfg.Seed, uint64(ki), hashName("e22")), cycleBuilder(n),
			func(g *graph.Undirected, r *rng.Rand) trial {
				anon := analyze.NewAnonymity(0, coalition)
				s := sim.NewSession(g, pop, r, cfg.engine())
				defer s.Close()
				s.Subscribe(anon)
				converged := s.Run().Converged
				return trial{anon, converged}
			})
		var ents, probs, ranks, wits []float64
		for t, res := range results {
			if !res.converged {
				return fmt.Errorf("E22 k=%d trial %d did not converge", k, t)
			}
			ents = append(ents, res.anon.PosteriorEntropy())
			probs = append(probs, res.anon.SourceProbability())
			ranks = append(ranks, float64(res.anon.SourceRank()))
			wits = append(wits, float64(res.anon.Witnesses()))
		}
		ent, prob := stats.Summarize(ents), stats.Summarize(probs)
		rank, wit := stats.Summarize(ranks), stats.Summarize(wits)
		tbl.AddRow(trace.I(k),
			trace.F(ent.Mean, 2), trace.F(prior, 2),
			trace.F(prob.Mean, 3), trace.F(1/float64(n), 3),
			trace.F(rank.Mean, 1), trace.F(wit.Mean, 1))
	}
	return render(cfg, w, tbl)
}
