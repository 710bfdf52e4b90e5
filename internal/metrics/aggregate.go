package metrics

import (
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

// This file implements cross-trial aggregation of trajectories. sim.Trials
// reports only terminal Results; experiments that also want the *shape* of
// convergence — how the minimum degree grows, how fast edges are
// disseminated round by round — run TrialsAggregate instead. Each trial
// subscribes a Trajectory, and the per-round series are merged into
// integer cross-trial sums in trial order after the pool drains, so the
// aggregate series is byte-identical for every pool size and GOMAXPROCS.
// Floating-point statistics are derived only once, at the end, from the
// merged sums.

// RoundAggregate is one round's cross-trial aggregate. Every trial
// contributes to every round up to the longest trial's length: trials that
// ended earlier contribute their final observed state (under the default
// Done that is minimum degree n-1, zero new edges, all pairs present), so
// the means are over all trials and Running reports how many were still
// going.
type RoundAggregate struct {
	// Round is the 1-based round number.
	Round int
	// Running is the number of trials that actually executed this round.
	Running int
	// MeanMinDegree / CI95MinDegree aggregate the minimum degree after the
	// round across trials (normal-approximation 95% CI half-width, matching
	// stats.MeanCI95).
	MeanMinDegree float64
	CI95MinDegree float64
	// MeanNewEdges / CI95NewEdges aggregate the round's newly inserted
	// edge count — the per-round dissemination rate.
	MeanNewEdges float64
	CI95NewEdges float64
	// MeanEdgeFraction is the fraction of all node pairs known after the
	// round, averaged across trials weighted by pair count (1 when every
	// trial's graph is complete).
	MeanEdgeFraction float64
}

// roundSums holds one round's integer accumulators.
type roundSums struct {
	count    int64 // contributions (== numTrials after the terminal fill)
	running  int64 // trials that executed this round live
	sumMin   int64
	sumMinSq int64
	sumNew   int64
	sumNewSq int64
	sumEdges int64
	sumPairs int64
}

func (rs *roundSums) add(minDeg, newEdges, edges, pairs int, live bool) {
	rs.count++
	if live {
		rs.running++
	}
	rs.sumMin += int64(minDeg)
	rs.sumMinSq += int64(minDeg) * int64(minDeg)
	rs.sumNew += int64(newEdges)
	rs.sumNewSq += int64(newEdges) * int64(newEdges)
	rs.sumEdges += int64(edges)
	rs.sumPairs += int64(pairs)
}

// aggTrial is one trial's record for the trial-order merge: its result,
// its entry state, and its per-round trajectory.
type aggTrial struct {
	res      sim.Result
	pairs    int
	entryMin int
	entryM   int
	snaps    []Snapshot
}

// TrialsAggregate runs numTrials trials of p exactly as sim.Trials runs
// them with sim.Run — same pool contract, same per-trial generators,
// bit-identical Results — while each trial records a Trajectory. It
// returns the per-trial results and the per-round aggregate series
// (length = longest trial). Both are byte-identical for every pool size.
func TrialsAggregate(pool, numTrials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Undirected,
	p core.Process, cfg sim.Config) ([]sim.Result, []RoundAggregate) {

	if cfg.MaxRounds < 0 {
		cfg.MaxRounds = 0 // Run's budget rule: a trial must return
	}
	trials := sim.Trials(pool, numTrials, seed, build, func(g *graph.Undirected, r *rng.Rand) aggTrial {
		// The entry state covers trials that finish in zero rounds.
		t := aggTrial{pairs: g.N() * (g.N() - 1) / 2, entryMin: g.MinDegree(), entryM: g.M()}
		traj := &Trajectory{}
		s := sim.NewSession(g, p, r, cfg)
		defer s.Close()
		s.Subscribe(traj)
		t.res = s.Run()
		t.snaps = traj.Snapshots
		return t
	})

	// Trials that ended before the longest trial keep contributing their
	// final observed state (correct for custom Done predicates too), so
	// every round aggregates all numTrials trials.
	maxR := 0
	for _, t := range trials {
		maxR = max(maxR, len(t.snaps))
	}
	agg := make([]roundSums, maxR)
	results := make([]sim.Result, numTrials)
	for i, t := range trials {
		results[i] = t.res
		finalMin, prevEdges := t.entryMin, t.entryM
		for r := range agg {
			if r < len(t.snaps) {
				s := t.snaps[r]
				agg[r].add(s.MinDegree, s.Edges-prevEdges, s.Edges, t.pairs, true)
				finalMin, prevEdges = s.MinDegree, s.Edges
			} else {
				agg[r].add(finalMin, 0, prevEdges, t.pairs, false)
			}
		}
	}

	out := make([]RoundAggregate, maxR)
	for r := range agg {
		rs := &agg[r]
		out[r] = RoundAggregate{
			Round:         r + 1,
			Running:       int(rs.running),
			MeanMinDegree: mean(rs.sumMin, rs.count),
			CI95MinDegree: ci95(rs.sumMin, rs.sumMinSq, rs.count),
			MeanNewEdges:  mean(rs.sumNew, rs.count),
			CI95NewEdges:  ci95(rs.sumNew, rs.sumNewSq, rs.count),
		}
		if rs.sumPairs > 0 {
			out[r].MeanEdgeFraction = float64(rs.sumEdges) / float64(rs.sumPairs)
		} else {
			out[r].MeanEdgeFraction = 1
		}
	}
	return results, out
}

func mean(sum, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// ci95 derives the normal-approximation 95% CI half-width on the mean from
// integer sum and sum-of-squares, with the unbiased sample variance —
// numerically the same quantity stats.MeanCI95 computes.
func ci95(sum, sumSq, count int64) float64 {
	if count < 2 {
		return 0
	}
	k := float64(count)
	variance := (float64(sumSq) - float64(sum)*float64(sum)/k) / (k - 1)
	if variance < 0 {
		variance = 0 // guard rounding for constant samples
	}
	return 1.96 * math.Sqrt(variance/k)
}

// RoundAtEdgeFraction returns the first aggregated round at which the mean
// edge fraction reached frac, or -1 if it never did. With frac < 1 this is
// typically far below the convergence round: the last few missing pairs
// dominate the Θ(n log² n) tail, which is exactly the coupon-collector
// effect the paper's lower bounds formalize.
func RoundAtEdgeFraction(agg []RoundAggregate, frac float64) int {
	for _, a := range agg {
		if a.MeanEdgeFraction >= frac {
			return a.Round
		}
	}
	return -1
}
