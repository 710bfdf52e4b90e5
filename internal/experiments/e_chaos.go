package experiments

import (
	"fmt"
	"io"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/protocol"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Chaos degradation curves: wire-level discovery vs impairment intensity",
		Paper: "Section 6 robustness conjectures, on the message-passing stack",
		Run:   runChaos,
	})
}

// chaosPoint runs one (protocol, scenario) sweep point on the wire-level
// stack and summarizes the discovery round counts across trials. Each
// trial is an independent (seed, scenario) pair, so every number in the
// tables is replayable bit-for-bit.
func chaosPoint(cfg Config, proto protocol.Protocol, n, trials int, seed uint64, scn *netsim.Scenario, maxRounds int) (stats.Summary, error) {
	return pointRounds(cfg, trials, seed, func(trial int, r *rng.Rand) *protocol.Cluster {
		return protocol.NewCluster(gen.Cycle(n), proto, netsim.Config{Seed: r.Uint64(), Scenario: scn})
	}, func(cl *protocol.Cluster, r *rng.Rand) outcome {
		defer cl.Close()
		rounds, done := cl.Run(maxRounds)
		return outcome{float64(rounds), done}
	})
}

// runChaos implements E19: discovery-time degradation curves for the
// wire-level push and pull protocols under one impairment family at a
// time — uniform loss, delivery delay, duplication/reordering sanity,
// NAT-like asymmetric phases that heal, and partitions that heal — each
// swept over intensity with the theory's simple thinning predictions
// alongside where one exists.
func runChaos(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	n := 32
	trials := cfg.trials(8)
	budget := sim.DefaultMaxRounds(n)

	for _, pr := range []struct {
		proto protocol.Protocol
		name  string
	}{{protocol.ProtoPush, "push"}, {protocol.ProtoPull, "pull"}} {
		// Uniform i.i.d. loss: each round's progress thins by the delivery
		// rate, so rounds should scale like 1/(1-p).
		lossTbl := trace.NewTable(
			fmt.Sprintf("E19: %s wire protocol on cycle n=%d vs uniform loss (%d trials)", pr.name, n, trials),
			"loss p", "rounds", "ci95", "slowdown", "1/(1-p)")
		base := 0.0
		for pi, p := range []float64{0, 0.1, 0.3, 0.5} {
			var scn *netsim.Scenario
			if p > 0 {
				scn = netsim.DropScenario(p)
			}
			sum, err := chaosPoint(cfg, pr.proto, n, trials,
				pointSeed(cfg.Seed, hashName(pr.name), 1900+uint64(pi)), scn, budget)
			if err != nil {
				return fmt.Errorf("E19 %s loss p=%.1f: %w", pr.name, p, err)
			}
			if pi == 0 {
				base = sum.Mean
			}
			lossTbl.AddRow(trace.F(p, 1), trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base, 2), trace.F(1/(1-p), 2))
		}
		if err := render(cfg, w, lossTbl); err != nil {
			return err
		}

		// Delivery delay (+ equal jitter): push is fire-and-forget, so a
		// slow wire only pipelines — every round still injects fresh
		// traffic and the slowdown stays near 1. Pull's REQ/REPLY
		// handshake pays the round trip, so it degrades with d.
		delayTbl := trace.NewTable(
			fmt.Sprintf("E19: %s wire protocol on cycle n=%d vs delivery delay d (+jitter d) (%d trials)", pr.name, n, trials),
			"delay d", "rounds", "ci95", "slowdown")
		for di, d := range []int{0, 1, 2, 4} {
			var scn *netsim.Scenario
			if d > 0 {
				scn = &netsim.Scenario{
					Name:   fmt.Sprintf("delay-%d", d),
					Phases: []netsim.Phase{{All: &netsim.Impairment{Delay: d, Jitter: d}}},
				}
			}
			sum, err := chaosPoint(cfg, pr.proto, n, trials,
				pointSeed(cfg.Seed, hashName(pr.name), 2900+uint64(di)), scn, budget)
			if err != nil {
				return fmt.Errorf("E19 %s delay d=%d: %w", pr.name, d, err)
			}
			if di == 0 {
				base = sum.Mean
			}
			delayTbl.AddRow(trace.I(d), trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base, 2))
		}
		if err := render(cfg, w, delayTbl); err != nil {
			return err
		}

		// Duplication and reordering must be nearly free: duplicates carry
		// no new identifiers and inbox order is protocol-irrelevant. This
		// is the null-effect control for the pipeline itself.
		sanityTbl := trace.NewTable(
			fmt.Sprintf("E19: %s wire protocol on cycle n=%d, null-effect impairments (%d trials)", pr.name, n, trials),
			"impairment", "rounds", "ci95", "slowdown")
		for si, s := range []struct {
			name string
			imp  netsim.Impairment
		}{
			{"none", netsim.Impairment{}},
			{"duplicate 0.5", netsim.Impairment{Duplicate: 0.5}},
			{"reorder 1.0", netsim.Impairment{Reorder: 1}},
		} {
			var scn *netsim.Scenario
			if !s.imp.IsZero() {
				scn = &netsim.Scenario{Name: s.name, Phases: []netsim.Phase{{All: &s.imp}}}
			}
			sum, err := chaosPoint(cfg, pr.proto, n, trials,
				pointSeed(cfg.Seed, hashName(pr.name), 3900+uint64(si)), scn, budget)
			if err != nil {
				return fmt.Errorf("E19 %s %s: %w", pr.name, s.name, err)
			}
			if si == 0 {
				base = sum.Mean
			}
			sanityTbl.AddRow(s.name, trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base, 2))
		}
		if err := render(cfg, w, sanityTbl); err != nil {
			return err
		}

		// Asymmetric reachability: the inbound links of k nodes are dead
		// until round 20 (they can send but not hear — NAT-like, and a
		// directed discovery instance on the undirected substrate). The
		// silenced nodes restart discovery from their initial contacts at
		// the heal, so rounds should approach 20 + baseline as k grows.
		asymTbl := trace.NewTable(
			fmt.Sprintf("E19: %s wire protocol on cycle n=%d, k nodes deaf until round 20 (%d trials)", pr.name, n, trials),
			"deaf nodes k", "rounds", "ci95", "slowdown")
		for ki, k := range []int{0, 4, 8} {
			var scn *netsim.Scenario
			if k > 0 {
				var links []netsim.LinkRule
				for u := 0; u < k; u++ {
					links = append(links, netsim.LinkRule{
						To: netsim.Node(u), Impairment: netsim.Impairment{Loss: 1},
					})
				}
				scn = &netsim.Scenario{
					Name:   fmt.Sprintf("deaf-%d", k),
					Phases: []netsim.Phase{{Until: 20, Links: links}},
				}
			}
			sum, err := chaosPoint(cfg, pr.proto, n, trials,
				pointSeed(cfg.Seed, hashName(pr.name), 4900+uint64(ki)), scn, budget)
			if err != nil {
				return fmt.Errorf("E19 %s deaf k=%d: %w", pr.name, k, err)
			}
			if ki == 0 {
				base = sum.Mean
			}
			asymTbl.AddRow(trace.I(k), trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base, 2))
		}
		if err := render(cfg, w, asymTbl); err != nil {
			return err
		}

		// Partition that heals at round H: the halves discover each other
		// internally during the split, so total rounds should track
		// roughly max(baseline, H + cross-half recovery).
		partTbl := trace.NewTable(
			fmt.Sprintf("E19: %s wire protocol on cycle n=%d, half/half partition healing at H (%d trials)", pr.name, n, trials),
			"heal round H", "rounds", "ci95", "slowdown")
		half := make([]int, n/2)
		for u := range half {
			half[u] = u
		}
		for hi, h := range []int{0, 10, 20, 40} {
			var scn *netsim.Scenario
			if h > 0 {
				scn = &netsim.Scenario{
					Name:   fmt.Sprintf("split-until-%d", h),
					Phases: []netsim.Phase{{Until: h, Partition: [][]int{half}}},
				}
			}
			sum, err := chaosPoint(cfg, pr.proto, n, trials,
				pointSeed(cfg.Seed, hashName(pr.name), 5900+uint64(hi)), scn, budget)
			if err != nil {
				return fmt.Errorf("E19 %s heal H=%d: %w", pr.name, h, err)
			}
			if hi == 0 {
				base = sum.Mean
			}
			partTbl.AddRow(trace.I(h), trace.F(sum.Mean, 1), trace.F(sum.CI95, 1),
				trace.F(sum.Mean/base, 2))
		}
		if err := render(cfg, w, partTbl); err != nil {
			return err
		}
	}
	return nil
}
