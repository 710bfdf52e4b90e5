package sim

import (
	"math"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// This file implements delta-driven cross-trial aggregation. The multi-
// trial harness (Trials) reports only terminal Results; experiments that
// also want the *shape* of convergence — how the minimum degree grows, how
// fast edges are disseminated round by round — previously had to record a
// full snapshot series per trial and post-process the lot. TrialsAggregate
// instead taps each trial's streaming delta pipeline: each trial folds its
// deltas into a compact local per-round row (three ints — no snapshot
// series, no graph copies), and the rows are merged into the cross-trial
// accumulators after the pool drains.
//
// Determinism: trials run concurrently on a bounded pool (TrialsAggregateOn
// caps it; an earlier revision instead folded into shared accumulators
// under a mutex in scheduler order, counting on integer-sum commutativity),
// but the merge itself is strictly sequential in trial order, so the
// aggregate series is *structurally* byte-identical for every pool size —
// including the sequential pool of one — and across runs and GOMAXPROCS,
// with no ordering argument needed. Floating-point statistics are derived
// only once, at the end, from the merged integer sums.

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

// trialRound is one trial's observed state after one of its live rounds —
// the compact per-trial record the trial-order merge consumes. 24 bytes per
// round per trial: a 100-trial aggregate over 3000-round runs costs ~7 MB,
// still independent of n and far below any snapshot series.
type trialRound struct {
	minDeg, newEdges, edges int
}

// minDegreeTracker maintains a trial's minimum degree and edge count
// incrementally from its delta stream, exactly as metrics.Trajectory does
// (it lives here because sim cannot import metrics).
type minDegreeTracker struct {
	inited bool
	deg    []int32
	hist   []int32
	minDeg int
	m      int
}

// observe folds one round's delta into the tracker and returns the
// post-round minimum degree and edge count.
func (t *minDegreeTracker) observe(g *graph.Undirected, d *RoundDelta) (minDeg, edges int) {
	if !t.inited {
		n := g.N()
		t.deg = make([]int32, n)
		t.hist = make([]int32, n)
		t.minDeg = 0
		if n > 0 {
			t.minDeg = n
		}
		for u := 0; u < n; u++ {
			dg := int32(g.Degree(u)) - d.DegreeInc[u]
			t.deg[u] = dg
			t.hist[dg]++
			if int(dg) < t.minDeg {
				t.minDeg = int(dg)
			}
		}
		t.m = g.M() - len(d.NewEdges)
		t.inited = true
	}
	for _, u := range d.Touched {
		old := t.deg[u]
		now := old + d.DegreeInc[u]
		t.hist[old]--
		t.hist[now]++
		t.deg[u] = now
	}
	t.m += len(d.NewEdges)
	n := len(t.deg)
	for t.minDeg < n-1 && t.hist[t.minDeg] == 0 {
		t.minDeg++
	}
	return t.minDeg, t.m
}

// TrialsAggregate runs numTrials independent trials exactly as Trials does
// — same seeds, same per-trial generators, bit-identical Results — while
// streaming every trial's per-round deltas into cross-trial aggregates. It
// returns the per-trial results and the per-round aggregate series (length
// = longest trial). It is TrialsAggregateOn with the default
// GOMAXPROCS-wide pool.
func TrialsAggregate(numTrials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Undirected,
	p core.Process, cfg Config) ([]Result, []RoundAggregate) {
	return TrialsAggregateOn(0, numTrials, seed, build, p, cfg)
}

// TrialsAggregateOn is TrialsAggregate on a bounded trial pool, exactly as
// TrialsOn bounds Trials: at most trialWorkers trials run concurrently
// (0 = GOMAXPROCS, 1 = strictly sequential in trial order, negative
// panics). Both return values are byte-identical for every pool size: each
// trial records its rounds locally and the cross-trial merge runs in trial
// order after the pool drains (TestTrialsAggregatePoolByteIdentical pins
// this over a seed matrix).
func TrialsAggregateOn(trialWorkers, numTrials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Undirected,
	p core.Process, cfg Config) ([]Result, []RoundAggregate) {

	if cfg.MaxRounds < 0 {
		cfg.MaxRounds = 0 // Run's budget rule: a trial must return
	}
	// Per-trial round rows (appended only by the owning trial — no locks)
	// and per-trial state frozen at each trial's last committed round, for
	// the terminal fill below: the final minimum degree, edge count, and
	// pair count (under the default Done these are n-1 / pairs / pairs, but
	// a custom Done can finish a trial on a sparse graph).
	rows := make([][]trialRound, numTrials)
	finalMin := make([]int, numTrials)
	finalEdges := make([]int, numTrials)
	trialPairs := make([]int, numTrials)
	results := trialsOn(trialWorkers, numTrials, seed, build, func(i int, g *graph.Undirected, r *rng.Rand) Result {
		trialPairs[i] = g.N() * (g.N() - 1) / 2
		// Entry state covers trials that finish in zero rounds.
		finalMin[i], finalEdges[i] = g.MinDegree(), g.M()
		tracker := &minDegreeTracker{}
		s := NewSession(g, p, r, cfg)
		defer s.Close()
		s.Subscribe(stream.SubscriberFunc(func(e *stream.Event) {
			minDeg, edges := tracker.observe(e.Graph, e.Delta)
			finalMin[i], finalEdges[i] = minDeg, edges
			rows[i] = append(rows[i], trialRound{minDeg: minDeg, newEdges: len(e.Delta.NewEdges), edges: edges})
		}))
		return s.Run()
	})

	// Merge in trial order — strictly sequential, so the output cannot
	// depend on how the pool scheduled the trials. Trials that ended before
	// the longest trial keep contributing their *final observed* state
	// (frozen above — correct for custom Done predicates too), so every
	// round aggregates all numTrials trials.
	maxR := 0
	for i := range rows {
		if len(rows[i]) > maxR {
			maxR = len(rows[i])
		}
	}
	agg := make([]roundSums, maxR)
	for i := range rows {
		for r := 0; r < maxR; r++ {
			if r < len(rows[i]) {
				tr := rows[i][r]
				agg[r].add(tr.minDeg, tr.newEdges, tr.edges, trialPairs[i], true)
			} else {
				agg[r].add(finalMin[i], 0, finalEdges[i], trialPairs[i], false)
			}
		}
	}

	out := make([]RoundAggregate, maxR)
	for r := 0; r < maxR; r++ {
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
