// Package metrics computes the graph observables the paper's analysis
// tracks: minimum degree (the proofs' progress measure), missing edges,
// degree histograms, neighborhood structure, and per-round trajectories.
//
// Trajectories are bus subscribers: handed to a session's Subscribe, they
// consume the per-round deltas the commit path emits (ObserveDelta) and
// maintain all per-node state incrementally, which keeps trajectory
// recording O(new edges) per round and allocation-flat. Every trajectory
// records the final committed round even under subsampling (Every > 1) —
// see Trajectory.Finalize. Take summarizes a graph by scanning it; tests
// use it as the reference the incremental state must match.
//
// Stepped sessions need no subscription at all: sim.Session.Step returns
// the same delta the bus carries, so a driver loop can feed a trajectory
// directly —
//
//	for {
//	    d, more := sess.Step()
//	    if d == nil {
//	        break
//	    }
//	    traj.ObserveDelta(sess.Graph(), d)
//	    if !more {
//	        break
//	    }
//	}
//
// (cmd/gossipsim's -trace flag drives trial 0 exactly this way.)
package metrics

import (
	"gossipdisc/internal/graph"
	"gossipdisc/internal/sim"
)

// Snapshot is a per-round summary of an undirected graph's state.
type Snapshot struct {
	Round     int
	Edges     int
	Missing   int
	MinDegree int
	MaxDegree int
}

// Take summarizes g at the given round.
func Take(round int, g *graph.Undirected) Snapshot {
	return Snapshot{
		Round:     round,
		Edges:     g.M(),
		Missing:   g.MissingEdges(),
		MinDegree: g.MinDegree(),
		MaxDegree: g.MaxDegree(),
	}
}

// Trajectory records a time series of snapshots. ObserveDelta — what
// OnEvent feeds from the bus — maintains degrees, the degree histogram, and
// the min/max degree incrementally from the round's edge delta (O(new
// edges) per round, no graph scans after the first round). Pass Every > 1
// to subsample rounds; the final committed round is always recorded
// regardless of subsampling — it is held pending and appended by Finalize,
// which every accessor calls, so `traj.Snapshots` readers should call
// Finalize() after the run (the accessor methods do it automatically).
type Trajectory struct {
	Every     int
	Snapshots []Snapshot

	rec recorder[Snapshot]

	inited bool
	m      int
	minDeg int
	maxDeg int
	deg    []int32
	hist   []int32 // hist[d] = number of nodes with degree d
}

// ObserveDelta records one round's delta. It consumes the per-round edge
// delta the commit path emits, so trajectory recording never re-scans the
// graph: state is initialized once from the first delta (rewinding that
// round's increments) and advanced by O(new edges) work per round
// afterwards.
func (t *Trajectory) ObserveDelta(g *graph.Undirected, d *sim.RoundDelta) {
	if !t.inited {
		t.init(g, d)
	}
	for _, u := range d.Touched {
		old := t.deg[u]
		now := old + d.DegreeInc[u]
		t.hist[old]--
		t.hist[now]++
		t.deg[u] = now
		if int(now) > t.maxDeg {
			t.maxDeg = int(now)
		}
	}
	t.m += len(d.NewEdges)
	// Degrees only grow, so the minimum degree advances monotonically:
	// the scan below costs O(n) over the whole run, not per round.
	n := len(t.deg)
	for t.minDeg < n-1 && t.hist[t.minDeg] == 0 {
		t.minDeg++
	}
	snap := Snapshot{
		Round:     d.Round,
		Edges:     t.m,
		Missing:   d.EdgesRemaining,
		MinDegree: t.minDeg,
		MaxDegree: t.maxDeg,
	}
	t.rec.observe(&t.Snapshots, t.Every, d.Round, d.EdgesRemaining == 0, snap)
}

// init seeds the incremental state from the graph as of the *first emitted
// delta* by rewinding that delta's increments, so G_0 need not be observed.
func (t *Trajectory) init(g *graph.Undirected, d *sim.RoundDelta) {
	n := g.N()
	t.deg = make([]int32, n)
	t.hist = make([]int32, n)
	for u := 0; u < n; u++ {
		t.deg[u] = int32(g.Degree(u)) - d.DegreeInc[u]
	}
	t.m = g.M() - len(d.NewEdges)
	t.minDeg, t.maxDeg = 0, 0
	if n > 0 {
		t.minDeg = n
		for _, dg := range t.deg {
			t.hist[dg]++
			if int(dg) < t.minDeg {
				t.minDeg = int(dg)
			}
			if int(dg) > t.maxDeg {
				t.maxDeg = int(dg)
			}
		}
	}
	t.inited = true
}

// Finalize appends the last observed round if subsampling skipped it, so
// the trajectory always ends at the final committed round. It is idempotent
// and called automatically by the accessor methods; call it explicitly
// before reading Snapshots directly.
func (t *Trajectory) Finalize() {
	t.rec.finalize(&t.Snapshots)
}

// DegreeHistogram returns the current degree histogram, shaped like
// graph.Undirected.DegreeHistogram (length MaxDegree+1). It returns nil
// before the first delta.
func (t *Trajectory) DegreeHistogram() []int {
	if !t.inited {
		return nil
	}
	out := make([]int, t.maxDeg+1)
	for d := range out {
		out[d] = int(t.hist[d])
	}
	return out
}

// MinDegrees returns the minimum-degree series of the trajectory.
func (t *Trajectory) MinDegrees() []int {
	t.Finalize()
	out := make([]int, len(t.Snapshots))
	for i, s := range t.Snapshots {
		out[i] = s.MinDegree
	}
	return out
}

// RoundsToMinDegree returns the first recorded round at which the minimum
// degree reached at least target, or -1 if it never did.
func (t *Trajectory) RoundsToMinDegree(target int) int {
	t.Finalize()
	for _, s := range t.Snapshots {
		if s.MinDegree >= target {
			return s.Round
		}
	}
	return -1
}

// GrowthEpochs returns, for each doubling target δ₀·(1+1/8)^k (the paper's
// growth factor), the first round where the minimum degree reached it. The
// series ends when the target exceeds n-1 (capped there). This is the
// empirical counterpart of the Theorem 8/12 proof engine: each epoch should
// cost O(n log n) rounds.
func (t *Trajectory) GrowthEpochs(delta0, n int) []int {
	if delta0 < 1 {
		delta0 = 1
	}
	var rounds []int
	target := float64(delta0)
	for {
		target *= 1.125
		goal := int(target)
		if goal > n-1 {
			goal = n - 1
		}
		r := t.RoundsToMinDegree(goal)
		rounds = append(rounds, r)
		if goal == n-1 {
			return rounds
		}
	}
}

// AliveComplete returns a sim Done predicate that fires when all pairs of
// alive nodes are adjacent (the convergence target under crash failures).
func AliveComplete(alive []bool) func(*graph.Undirected) bool {
	return func(g *graph.Undirected) bool {
		n := g.N()
		for u := 0; u < n; u++ {
			if !alive[u] {
				continue
			}
			for v := u + 1; v < n; v++ {
				if alive[v] && !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
}
