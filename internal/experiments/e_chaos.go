package experiments

import (
	"fmt"
	"slices"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/protocol"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

// chaosPoint measures one (protocol, scenario) sweep point on the
// wire-level stack. Each trial is an independent (seed, scenario) pair, so
// every number in the tables is replayable bit-for-bit.
func chaosPoint(cfg Config, proto protocol.Protocol, n, trials int, seed uint64, scn *netsim.Scenario, maxRounds int) func() (stats.Summary, error) {
	return measure(cfg, trials, seed, func(trial int, r *rng.Rand) *protocol.Cluster {
		return protocol.NewCluster(gen.Cycle(n), proto, netsim.Config{Seed: r.Uint64(), Scenario: scn})
	}, func(cl *protocol.Cluster, r *rng.Rand) outcome {
		defer cl.Close()
		rounds, done := cl.Run(maxRounds)
		return outcome{rounds: float64(rounds), converged: done}
	})
}

// impairment is one level of a chaos sweep: its row's leading cell, its
// scenario (nil = a clean wire), and the theory's prediction cells, if any.
type impairment struct {
	cell  string
	scn   *netsim.Scenario
	extra []string
}

// everyLink is a one-phase scenario that impairs every link for the whole
// run.
func everyLink(name string, imp netsim.Impairment) *netsim.Scenario {
	return &netsim.Scenario{Name: name, Phases: []netsim.Phase{{All: &imp}}}
}

// chaos implements E19: discovery-time degradation curves for the
// wire-level push and pull protocols under one impairment family at a
// time — uniform loss, delivery delay, duplication/reordering sanity,
// NAT-like asymmetric phases that heal, and partitions that heal — each
// swept over intensity with the theory's simple thinning predictions
// alongside where one exists.
func chaos(cfg Config) ([]*trace.Table, error) {
	const n = 32
	trials := cfg.trials(8)
	budget := sim.DefaultMaxRounds(n)

	// Uniform i.i.d. loss: each round's progress thins by the delivery
	// rate, so rounds should scale like 1/(1-p).
	var loss []impairment
	for _, p := range []float64{0, 0.1, 0.3, 0.5} {
		l := impairment{cell: trace.F(p, 1), extra: []string{trace.F(1/(1-p), 2)}}
		if p > 0 {
			l.scn = netsim.DropScenario(p)
		}
		loss = append(loss, l)
	}
	// Delivery delay (+ equal jitter): push is fire-and-forget, so a slow
	// wire only pipelines — every round still injects fresh traffic and
	// the slowdown stays near 1. Pull's REQ/REPLY handshake pays the round
	// trip, so it degrades with d.
	var delay []impairment
	for _, d := range []int{0, 1, 2, 4} {
		l := impairment{cell: trace.I(d)}
		if d > 0 {
			l.scn = everyLink(fmt.Sprintf("delay-%d", d), netsim.Impairment{Delay: d, Jitter: d})
		}
		delay = append(delay, l)
	}
	// Duplication and reordering must be nearly free: duplicates carry no
	// new identifiers and inbox order is protocol-irrelevant. This is the
	// null-effect control for the pipeline itself.
	sanity := []impairment{
		{cell: "none"},
		{cell: "duplicate 0.5", scn: everyLink("duplicate 0.5", netsim.Impairment{Duplicate: 0.5})},
		{cell: "reorder 1.0", scn: everyLink("reorder 1.0", netsim.Impairment{Reorder: 1})},
	}
	// Asymmetric reachability: the inbound links of k nodes are dead until
	// round 20 (they can send but not hear — NAT-like, and a directed
	// discovery instance on the undirected substrate). The silenced nodes
	// restart discovery from their initial contacts at the heal, so rounds
	// should approach 20 + baseline as k grows.
	var deaf []impairment
	for _, k := range []int{0, 4, 8} {
		l := impairment{cell: trace.I(k)}
		if k > 0 {
			var links []netsim.LinkRule
			for u := 0; u < k; u++ {
				links = append(links, netsim.LinkRule{
					To: netsim.Node(u), Impairment: netsim.Impairment{Loss: 1},
				})
			}
			l.scn = &netsim.Scenario{
				Name:   fmt.Sprintf("deaf-%d", k),
				Phases: []netsim.Phase{{Until: 20, Links: links}},
			}
		}
		deaf = append(deaf, l)
	}
	// Partition that heals at round H: the halves discover each other
	// internally during the split, so total rounds should track roughly
	// max(baseline, H + cross-half recovery).
	half := make([]int, n/2)
	for u := range half {
		half[u] = u
	}
	var heal []impairment
	for _, h := range []int{0, 10, 20, 40} {
		l := impairment{cell: trace.I(h)}
		if h > 0 {
			l.scn = &netsim.Scenario{
				Name:   fmt.Sprintf("split-until-%d", h),
				Phases: []netsim.Phase{{Until: h, Partition: [][]int{half}}},
			}
		}
		heal = append(heal, l)
	}

	// Sweep k draws its seeds from 1900 + 1000k on.
	sweeps := []struct {
		title string
		col   string
		extra []string
		lvls  []impairment
	}{
		{" vs uniform loss", "loss p", []string{"1/(1-p)"}, loss},
		{" vs delivery delay d (+jitter d)", "delay d", nil, delay},
		{", null-effect impairments", "impairment", nil, sanity},
		{", k nodes deaf until round 20", "deaf nodes k", nil, deaf},
		{", half/half partition healing at H", "heal round H", nil, heal},
	}
	var out []*trace.Table
	for _, p := range processes {
		for si, sw := range sweeps {
			points := make([]point, len(sw.lvls))
			for li, l := range sw.lvls {
				seed := pointSeed(cfg.Seed, hashName(p.name), uint64(1900+1000*si+li))
				points[li] = point{
					cells:  []string{l.cell},
					rounds: chaosPoint(cfg, p.wire, n, trials, seed, l.scn, budget),
					extra:  l.extra,
				}
			}
			tbl, _, err := slowdownTable(
				fmt.Sprintf("E19: %s wire protocol on cycle n=%d%s (%d trials)", p.name, n, sw.title, trials),
				slices.Concat([]string{sw.col, "rounds", "ci95", "slowdown"}, sw.extra), 0, points)
			if err != nil {
				return out, err
			}
			out = append(out, tbl)
		}
	}
	return out, nil
}
