package experiments

import (
	"fmt"
	"slices"

	"gossipdisc/internal/churn"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

// churnCoverage implements E14. With nodes joining and leaving, one-shot
// convergence is replaced by a moving target; the steady-state *coverage* —
// the fraction of current-member pairs that know each other — measures how
// well the process keeps up. Push and pull both sustain high coverage at
// moderate churn because new edges accrue at Ω(1) per round per member
// while each churn event invalidates only O(membership) pair-knowledge.
func churnCoverage(cfg Config) ([]*trace.Table, error) {
	trials := cfg.trials(5)
	const members = 48
	const rounds = 1500
	const tail = 400 // steady-state window

	var out []*trace.Table
	for _, p := range processes {
		tbl := trace.NewTable(
			fmt.Sprintf("E14: %s with %d members, %d rounds, coverage over final %d rounds (%d trials)",
				p.name, members, rounds, tail, trials),
			"churn rate/round", "mean coverage", "min coverage", "rounds to 90% (cold start)")
		for ri, rate := range []float64{0, 0.1, 0.5, 1.0, 2.0} {
			coverage := sim.Trials(cfg.TrialWorkers, trials, pointSeed(cfg.Seed, uint64(ri), hashName(p.name)),
				func(trial int, r *rng.Rand) *churn.Session {
					return churn.NewSession(churn.Config{
						Capacity:       members + int(rate*float64(rounds)) + 16,
						InitialMembers: members,
						SeedDegree:     3,
						Rate:           rate,
						Pull:           p.name == "pull",
					}, r)
				}, func(s *churn.Session, r *rng.Rand) []float64 { return s.Run(rounds) })
			var covs, mins, warmups []float64
			for _, series := range coverage {
				warm := float64(rounds)
				if i := slices.IndexFunc(series, func(c float64) bool { return c >= 0.9 }); i >= 0 {
					warm = float64(i + 1)
				}
				warmups = append(warmups, warm)
				tailSlice := series[rounds-tail:]
				covs = append(covs, stats.Mean(tailSlice))
				mins = append(mins, stats.Min(tailSlice))
			}
			tbl.AddRow(trace.F(rate, 1),
				trace.F(stats.Mean(covs), 4),
				trace.F(stats.Min(mins), 4),
				trace.F(stats.Mean(warmups), 0))
		}
		out = append(out, tbl)
	}
	return out, nil
}
