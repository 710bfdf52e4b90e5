package metrics

import (
	"gossipdisc/internal/graph"
	"gossipdisc/internal/sim"
)

// This file implements age-of-information (AoI) tracking on the delta
// stream, after the staleness metrics of Bastopcu et al. (*The Role of
// Gossiping for Information Dissemination over Networked Agents*, see
// PAPERS.md). A node's information is "updated" whenever it gains an edge —
// it learned a new peer — and its age is the time since its last update.
// The event-driven runtime (internal/eventsim) exposes exact event-time
// ages on the session itself; AoITrajectory consumes the per-round delta
// stream of *either* runtime and records mean/max age trajectories at
// parallel-round granularity (each delta's Round is one unit of simulated
// time), which is the resolution experiments plot.
//
// The incremental state is O(touched) per round: the mean age rides a
// running Σ lastUpdate, and the max age rides a lazy min-heap over
// last-update times (stale heap entries — nodes updated again since they
// were pushed — are discarded on pop), so recording stays cheap even at
// n = 10⁵–10⁶.

// AoISample is one recorded point of an age-of-information trajectory.
type AoISample struct {
	// Round is the parallel-round boundary (one unit of simulated time).
	Round int
	// MeanAge and MaxAge are the mean and maximum over nodes of
	// round − lastUpdate(node) at this boundary.
	MeanAge float64
	MaxAge  float64
}

// AoITrajectory records mean/max age-of-information trajectories from a
// per-round delta stream: subscribe it to a session (or feed ObserveDelta
// the deltas Step returns) on either the tick or the event runtime. As
// with Trajectory, pass Every > 1 to subsample; the final observed round is
// always recorded — call Finalize before reading Samples directly.
type AoITrajectory struct {
	Every   int
	Samples []AoISample

	rec recorder[AoISample]

	inited bool
	last   []float64 // per-node last-update time (0 = never)
	sum    float64   // Σ last
	fresh  int       // nodes never updated (their last is the global 0)
	heapT  []float64 // lazy min-heap of (last-update, node) entries
	heapU  []int32
}

func (t *AoITrajectory) init(n int) {
	t.last = make([]float64, n)
	t.fresh = n
	t.inited = true
}

// ObserveDelta consumes one round's delta. Time is the delta's Round (unit
// simulated time per parallel round); nodes touched this round have their
// last-update time stamped to the boundary.
func (t *AoITrajectory) ObserveDelta(g *graph.Undirected, d *sim.RoundDelta) {
	if !t.inited {
		t.init(g.N())
	}
	now := float64(d.Round)
	for _, u := range d.Touched {
		if t.last[u] == 0 {
			t.fresh--
		}
		t.sum += now - t.last[u]
		t.last[u] = now
		t.heapPush(now, u)
	}
	n := len(t.last)
	s := AoISample{Round: d.Round}
	if n > 0 {
		s.MeanAge = now - t.sum/float64(n)
		s.MaxAge = now - t.minLast()
	}
	t.rec.observe(&t.Samples, t.Every, d.Round, d.EdgesRemaining == 0, s)
}

// Finalize appends the last observed round if subsampling skipped it. It is
// idempotent.
func (t *AoITrajectory) Finalize() {
	t.rec.finalize(&t.Samples)
}

// Age returns node u's age as of the last observed round (its whole
// lifetime if it was never updated). O(1); 0 before the first delta.
func (t *AoITrajectory) Age(u int) float64 {
	if !t.inited {
		return 0
	}
	now := t.lastObserved()
	return now - t.last[u]
}

func (t *AoITrajectory) lastObserved() float64 {
	if t.rec.have {
		return float64(t.rec.pending.Round)
	}
	if len(t.Samples) > 0 {
		return float64(t.Samples[len(t.Samples)-1].Round)
	}
	return 0
}

// minLast returns the minimum last-update time over all nodes: 0 while any
// node was never updated, otherwise the lazy heap's first non-stale entry.
func (t *AoITrajectory) minLast() float64 {
	if t.fresh > 0 {
		return 0
	}
	for len(t.heapT) > 0 {
		top, u := t.heapT[0], t.heapU[0]
		if t.last[u] == top {
			return top
		}
		// Stale: u was updated again after this entry was pushed.
		t.heapPop()
	}
	return 0 // unreachable once fresh == 0, kept for safety
}

func (t *AoITrajectory) heapPush(v float64, u int32) {
	t.heapT = append(t.heapT, v)
	t.heapU = append(t.heapU, u)
	i := len(t.heapT) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if t.heapT[parent] <= t.heapT[i] {
			break
		}
		t.heapT[parent], t.heapT[i] = t.heapT[i], t.heapT[parent]
		t.heapU[parent], t.heapU[i] = t.heapU[i], t.heapU[parent]
		i = parent
	}
}

func (t *AoITrajectory) heapPop() {
	last := len(t.heapT) - 1
	t.heapT[0], t.heapU[0] = t.heapT[last], t.heapU[last]
	t.heapT, t.heapU = t.heapT[:last], t.heapU[:last]
	i, n := 0, last
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && t.heapT[r] < t.heapT[l] {
			c = r
		}
		if t.heapT[i] <= t.heapT[c] {
			return
		}
		t.heapT[i], t.heapT[c] = t.heapT[c], t.heapT[i]
		t.heapU[i], t.heapU[c] = t.heapU[c], t.heapU[i]
		i = c
	}
}

// MeanAges returns the mean-age series of the trajectory.
func (t *AoITrajectory) MeanAges() []float64 {
	t.Finalize()
	out := make([]float64, len(t.Samples))
	for i, s := range t.Samples {
		out[i] = s.MeanAge
	}
	return out
}

// MaxAges returns the max-age series of the trajectory.
func (t *AoITrajectory) MaxAges() []float64 {
	t.Finalize()
	out := make([]float64, len(t.Samples))
	for i, s := range t.Samples {
		out[i] = s.MaxAge
	}
	return out
}
