package experiments

import (
	"fmt"
	"math"

	"gossipdisc/internal/baseline"
	"gossipdisc/internal/core"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/trace"
)

// baselines implements E11. The paper motivates its processes as the
// bandwidth-frugal end of the resource-discovery spectrum: Name Dropper
// finishes in polylog rounds but ships whole neighbor lists, while push and
// pull use O(log n)-bit messages for O(n log² n) rounds. The table shows
// both axes on shared workloads; "who wins" flips with the metric, exactly
// as the paper argues.
func baselines(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(32, 64, 128)
	trials := cfg.trials(10)

	contenders := []struct {
		name string
		make func(meter *baseline.IDMeter) core.Process
	}{
		{"push", func(m *baseline.IDMeter) core.Process {
			return baseline.MeteredGossip{Inner: core.Push{}, IDsPerAct: 2, Meter: m}
		}},
		{"pull", func(m *baseline.IDMeter) core.Process {
			return baseline.MeteredGossip{Inner: core.Pull{}, IDsPerAct: 3, Meter: m}
		}},
		{"name-dropper", func(m *baseline.IDMeter) core.Process {
			return baseline.NameDropper{Meter: m}
		}},
		{"pointer-jump", func(m *baseline.IDMeter) core.Process {
			return baseline.RandomPointerJump{Meter: m}
		}},
	}

	var out []*trace.Table
	for _, n := range ns {
		idBits := int(math.Ceil(math.Log2(float64(n))))
		tbl := trace.NewTable(
			fmt.Sprintf("E11: cycle workload, n=%d (%d trials, ID width %d bits)", n, trials, idBits),
			"algorithm", "rounds", "total IDs sent", "IDs/round/node", "IDs/msg (mean)", "total Mbit")
		for ci, c := range contenders {
			meter := &baseline.IDMeter{}
			proc := c.make(meter)
			seed := pointSeed(cfg.Seed, uint64(n), uint64(ci))
			// Meters are shared across trials; divide totals by trial count.
			sum, err := pointRounds(cfg, trials, seed, cycleBuilder(n), undirected(proc, sim.Config{}))
			if err != nil {
				return out, fmt.Errorf("E11 %s n=%d: %w", c.name, n, err)
			}
			idsPerTrial := float64(meter.IDs()) / float64(trials)
			perRoundPerNode := idsPerTrial / (sum.Mean * float64(n))
			perMsg := float64(meter.IDs()) / float64(meter.Messages())
			// For push/pull messages are constant-size, so the mean per
			// message equals the max; for Name Dropper / Pointer Jump the
			// mean already dwarfs it — the bandwidth axis the paper argues.
			tbl.AddRow(c.name,
				trace.F(sum.Mean, 1),
				trace.F(idsPerTrial, 0),
				trace.F(perRoundPerNode, 2),
				trace.F(perMsg, 2),
				trace.F(idsPerTrial*float64(idBits)/1e6, 3))
		}
		out = append(out, tbl)
	}
	return out, nil
}
