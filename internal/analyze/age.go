package analyze

import (
	"fmt"

	"gossipdisc/internal/stream"
)

// Age tracks age of information, after Bastopcu et al. (PAPERS.md): a
// node's age is the time since it last gained an edge (0 counts as its
// last update if it never did), in the runtime's own time unit — rounds
// on the round runtimes, simulated seconds on the event-driven one. On a
// delta carrying EdgeTimes each edge stamps its endpoints at its exact
// event time; otherwise every touched node is stamped at the event's Time.
// Per-round work is O(new edges); MeanAge and TimeAvgMeanAge are O(1) and
// MaxAge an on-demand O(n) scan. The zero value is ready to subscribe.
type Age struct {
	inited bool
	round  int
	now    float64

	last []float64 // per-node time of the last gained edge
	sum  float64   // Σ last, for O(1) MeanAge
	area float64   // ∫ MeanAge dt over [0, now]
}

// OnEvent implements stream.Subscriber; only KindRound deltas matter.
func (a *Age) OnEvent(e *stream.Event) {
	if e.Kind != stream.KindRound {
		return
	}
	if !a.inited {
		a.inited = true
		a.last = make([]float64, e.Graph.N())
	}
	d := e.Delta
	a.round = d.Round
	if d.EdgeTimes == nil {
		a.advance(e.Time)
		for _, u := range d.Touched {
			a.stamp(int(u))
		}
		return
	}
	for i, ed := range d.NewEdges {
		a.advance(d.EdgeTimes[i])
		a.stamp(ed.U)
		a.stamp(ed.V)
	}
	a.advance(e.Time)
}

// advance moves the clock to t, accruing the mean-age integral over
// [now, t]: sum is constant between stamps, so the area is exact.
func (a *Age) advance(t float64) {
	if t <= a.now {
		return
	}
	if n := len(a.last); n > 0 {
		a.area += (t*t-a.now*a.now)/2 - (t-a.now)*a.sum/float64(n)
	}
	a.now = t
}

// stamp records that node u gained an edge at the current time.
func (a *Age) stamp(u int) {
	a.sum += a.now - a.last[u]
	a.last[u] = a.now
}

// LastUpdate returns the time node u last gained an edge (0 if never, or
// before the first round). O(1).
func (a *Age) LastUpdate(u int) float64 {
	if !a.inited {
		return 0
	}
	return a.last[u]
}

// MeanAge returns the mean age of information at the last observed time:
// the average over nodes of now − LastUpdate(u). O(1).
func (a *Age) MeanAge() float64 {
	if len(a.last) == 0 {
		return 0
	}
	return a.now - a.sum/float64(len(a.last))
}

// MaxAge returns the largest per-node age and the node holding it
// (-1 when empty). O(n).
func (a *Age) MaxAge() (age float64, node int) {
	node = -1
	for u, t := range a.last {
		if g := a.now - t; node == -1 || g > age {
			age, node = g, u
		}
	}
	return age, node
}

// TimeAvgMeanAge returns the time average of MeanAge over [0, now] — the
// canonical age-of-information objective. O(1); 0 before any time passed.
func (a *Age) TimeAvgMeanAge() float64 {
	if a.now == 0 {
		return 0
	}
	return a.area / a.now
}

// Findings reports the age gauges as an info line.
func (a *Age) Findings() []Finding {
	if !a.inited {
		return nil
	}
	maxAge, maxNode := a.MaxAge()
	return []Finding{{
		Rule:     "age-of-information",
		Severity: SevInfo,
		Round:    a.round,
		Node:     maxNode,
		Message:  fmt.Sprintf("mean age %.2f, max age %.2f", a.MeanAge(), maxAge),
	}}
}
