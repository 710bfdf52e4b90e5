package metrics

import (
	"math"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// These tests pin analyze.Age on round-granular streams, where every edge
// lands at its round's boundary (the deltas carry no EdgeTimes).

// fakeDelta builds a minimal RoundDelta for direct analyzer tests.
func fakeDelta(round int, remaining int, touched ...int32) *sim.RoundDelta {
	return &sim.RoundDelta{Round: round, EdgesRemaining: remaining, Touched: touched}
}

// observe feeds d to a as the KindRound event a session publishes at the
// round boundary.
func observe(a *analyze.Age, g *graph.Undirected, d *sim.RoundDelta) {
	a.OnEvent(&stream.Event{Kind: stream.KindRound, Time: float64(d.Round), Graph: g, Delta: d})
}

func TestAoITrajectoryHandComputed(t *testing.T) {
	g := gen.Path(4) // only N() matters to the analyzer
	a := &analyze.Age{}

	// Round 1: nodes 0 and 1 updated. last = [1, 1, 0, 0].
	// Round 2: nothing. Ages grow in silence.
	// Round 3: node 0 again, node 2 first time. last = [3, 1, 3, 0].
	// Round 4: node 3's first update. last = [3, 1, 3, 4].
	steps := []struct {
		d       *sim.RoundDelta
		mean    float64
		max     float64
		maxNode int
	}{
		{fakeDelta(1, 5, 0, 1), 1 - 2.0/4, 1, 2}, // nodes 2, 3 never updated
		{fakeDelta(2, 5), 2 - 2.0/4, 2, 2},       // silence: +1 across the board
		{fakeDelta(3, 5, 0, 2), 3 - 7.0/4, 3, 3}, // node 3 still at 0
		{fakeDelta(4, 5, 3), 4 - 11.0/4, 3, 1},   // node 1, last updated at 1
	}
	for _, st := range steps {
		observe(a, g, st.d)
		if got := a.MeanAge(); math.Abs(got-st.mean) > 1e-12 {
			t.Fatalf("round %d mean age = %v, want %v", st.d.Round, got, st.mean)
		}
		if got, node := a.MaxAge(); got != st.max || node != st.maxNode {
			t.Fatalf("round %d max age = (%v, node %d), want (%v, node %d)", st.d.Round, got, node, st.max, st.maxNode)
		}
	}
	if got := a.LastUpdate(1); got != 1 {
		t.Fatalf("LastUpdate(1) = %v, want 1", got)
	}
	if got := a.LastUpdate(3); got != 4 {
		t.Fatalf("LastUpdate(3) = %v, want 4 (just updated)", got)
	}
	// Sawtooth areas Δ²/2 per node over [0, 4]: node 0 (1+4+1)/2, node 1
	// (1+9)/2, node 2 (9+1)/2, node 3 16/2 — 21 in all, over n·T = 16.
	if got := a.TimeAvgMeanAge(); math.Abs(got-21.0/16) > 1e-12 {
		t.Fatalf("TimeAvgMeanAge = %v, want %v", got, 21.0/16)
	}
}

// TestAoITrajectoryMatchesBruteForce replays a real stepped run, whose
// deltas carry no EdgeTimes (every touched node updates at the round's
// time), and checks the incremental mean, max and time-averaged mean
// against a brute-force recompute every round.
func TestAoITrajectoryMatchesBruteForce(t *testing.T) {
	const n = 40
	g := gen.Cycle(n)
	a := &analyze.Age{}
	last := make([]float64, n)
	area := 0.0 // Σ_u of closed sawtooth areas
	s := sim.NewSession(g, core.Push{}, rng.New(3), sim.Config{})
	defer s.Close()
	for {
		d, ok := s.Step()
		if d == nil {
			break
		}
		observe(a, g, d)
		now := float64(d.Round)
		for _, u := range d.Touched {
			area += (now - last[u]) * (now - last[u]) / 2
			last[u] = now
		}
		sum, min, open := 0.0, math.Inf(1), 0.0
		for _, l := range last {
			sum += l
			min = math.Min(min, l)
			open += (now - l) * (now - l) / 2
		}
		got, _ := a.MaxAge()
		if math.Abs(a.MeanAge()-(now-sum/n)) > 1e-9 || math.Abs(got-(now-min)) > 1e-9 {
			t.Fatalf("round %d: incremental (%v, %v) vs brute force (%v, %v)",
				d.Round, a.MeanAge(), got, now-sum/n, now-min)
		}
		if want := (area + open) / (n * now); math.Abs(a.TimeAvgMeanAge()-want) > 1e-9 {
			t.Fatalf("round %d: time-averaged mean age %v, brute force %v", d.Round, a.TimeAvgMeanAge(), want)
		}
		if !ok {
			break
		}
	}
	if !s.Converged() {
		t.Fatal("run did not converge")
	}
}

func TestAoITrajectoryEmptyGraph(t *testing.T) {
	a := &analyze.Age{}
	observe(a, graph.NewUndirected(0), fakeDelta(1, 0))
	if age, node := a.MaxAge(); a.MeanAge() != 0 || age != 0 || node != -1 || a.TimeAvgMeanAge() != 0 {
		t.Fatalf("n=0: mean %v, max (%v, node %d), time-averaged %v", a.MeanAge(), age, node, a.TimeAvgMeanAge())
	}
}
