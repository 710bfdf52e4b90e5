package eventsim

import (
	"math"
	"slices"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stats"
)

// The law fence: with bit-identity to the per-node-clock schedule gone,
// these tests tie the jump chain to the model it samples — independent
// Poisson clocks, one per node. Seeds and thresholds are fixed in advance;
// the chi-square bounds are the 0.001 upper quantiles.

// lawRates is a map with rates that are not powers of two, two classes
// sharing one rate group (1.3 and 1.9 both lie in (1, 2]) and a parked
// class, on 60 nodes: Λ = 20·1.3 + 10·1.9 + 10·0.7 + 10·5.5 = 107.
func lawRates() *RateMap {
	m := NewRateMap(60, 1.3)
	for _, c := range []struct {
		name   string
		rate   float64
		lo, hi int
	}{{"b", 1.9, 20, 30}, {"c", 0.7, 30, 40}, {"d", 5.5, 40, 50}, {"park", 0, 50, 60}} {
		m.DefineClass(c.name, c.rate)
		m.AssignClass(c.name, c.lo, c.hi)
	}
	return m
}

// TestEventActivationLaw counts 400k activations on a complete graph (push
// only re-proposes existing edges, so the schedule is all that varies) and
// checks the shares per class and per node against Rate(u)/Λ by
// chi-square, that the parked class never fires, and that the event rate is
// Λ: Time·Λ/Events within 1 % of 1 (six standard deviations).
func TestEventActivationLaw(t *testing.T) {
	const events = 400_000
	rates := lawRates()
	lambda := rates.TotalRate()
	counts := make([]float64, rates.N())
	s := New(gen.Complete(rates.N()), core.Push{}, rng.New(2024), Config{Rates: rates, MaxEvents: events, Done: never})
	s.hook = func(u int, _ float64) { counts[u]++ }
	res := s.Run()
	if res.Events != events {
		t.Fatalf("ran %d events, want %d", res.Events, events)
	}
	if x := res.Time * lambda / events; math.Abs(x-1) > 0.01 {
		t.Errorf("Time·Λ/Events = %.4f, want 1 ± 0.01", x)
	}

	// chi2 folds observed against expected counts over cells, each cell a
	// half-open node range.
	chi2 := func(cells [][2]int) float64 {
		x := 0.0
		for _, c := range cells {
			obs, rate := 0.0, 0.0
			for u := c[0]; u < c[1]; u++ {
				obs += counts[u]
				rate += rates.Rate(u)
			}
			exp := events * rate / lambda
			x += (obs - exp) * (obs - exp) / exp
		}
		return x
	}
	classX2 := chi2([][2]int{{0, 20}, {20, 30}, {30, 40}, {40, 50}})
	var nodes [][2]int
	for u := 0; u < 50; u++ {
		nodes = append(nodes, [2]int{u, u + 1})
	}
	nodeX2 := chi2(nodes)
	t.Logf("chi-square: classes %.2f, nodes %.2f", classX2, nodeX2)
	if classX2 > 16.27 {
		t.Errorf("class shares: chi-square %.2f over 3 df, want ≤ 16.27", classX2)
	}
	if nodeX2 > 85.35 {
		t.Errorf("node shares: chi-square %.2f over 49 df, want ≤ 85.35", nodeX2)
	}
	for u := 50; u < 60; u++ {
		if counts[u] != 0 {
			t.Errorf("parked node %d fired %v times", u, counts[u])
		}
	}
}

// TestEventParkedNodesNeverFire parks one node and one class mid-run: none
// of them may fire again, and everyone else keeps firing.
func TestEventParkedNodesNeverFire(t *testing.T) {
	s := New(gen.Cycle(64), core.Push{}, rng.New(31), Config{Rates: skewed(), MaxEvents: 20_000, Done: never})
	parked := false
	fired := make([]int, 64)
	s.hook = func(u int, _ float64) {
		if parked {
			fired[u]++
		}
	}
	for step := 0; ; step++ {
		if step == 3 {
			s.SetNodeRate(13, 0)
			s.SetClassRate("fast", 0)
			parked = true
		}
		if _, ok := s.Step(); !ok {
			break
		}
	}
	for u, k := range fired {
		if off := u == 13 || u < 8; off != (k == 0) {
			t.Errorf("node %d fired %d times after the park (parked: %v)", u, k, off)
		}
	}
}

// retuneFunc applies a mid-run rate schedule before the given step through
// whichever setters the runtime under test has.
type retuneFunc func(step int, setNode func(u int, rate float64), setClass func(name string, rate float64))

// referenceRun is the test-only model the chain samples: n independent
// exponential clocks, the earliest firing next, each redrawn from the
// current time when its rate changes (exact by memorylessness). It runs
// push to convergence and returns the time and the number of activations.
func referenceRun(seed uint64, m *RateMap, retune retuneFunc) (float64, int) {
	r := rng.New(seed)
	n := m.N()
	g := gen.Cycle(n)
	next := make([]float64, n)
	draw := func(u int, now float64) {
		next[u] = math.Inf(1)
		if rate := m.Rate(u); rate > 0 {
			next[u] = now + r.Exp()/rate
		}
	}
	for u := range next {
		draw(u, 0)
	}
	propose := func(a, b int) { g.AddEdge(a, b) }
	events := 0
	for step := 0; ; step++ {
		now := float64(step)
		if retune != nil {
			before := slices.Clone(m.table.Values())
			retune(step, m.SetNodeRate, func(name string, rate float64) { m.SetClassRate(name, rate) })
			for u := range before {
				if m.Rate(u) != before[u] {
					draw(u, now)
				}
			}
		}
		for {
			u := 0
			for v := range next {
				if next[v] < next[u] {
					u = v
				}
			}
			if next[u] > now+1 {
				break
			}
			events++
			core.Push{}.Act(g, u, r, propose)
			if g.IsComplete() {
				return next[u], events
			}
			draw(u, next[u])
		}
	}
}

// eventRun runs the session to convergence under the same schedule.
func eventRun(seed uint64, m *RateMap, retune retuneFunc) (float64, int) {
	s := New(gen.Cycle(m.N()), core.Push{}, rng.New(seed), Config{Rates: m})
	for step := 0; ; step++ {
		if retune != nil {
			retune(step, s.SetNodeRate, s.SetClassRate)
		}
		if _, ok := s.Step(); !ok {
			break
		}
	}
	return s.Time(), s.Events()
}

// skewed32 is skewed() cut to 32 nodes: a fast class at rate 3, a slow one
// at 0.3 and one override at 1.7, so three groups with thinning in each.
func skewed32() *RateMap {
	m := NewRateMap(32, 1)
	m.DefineClass("fast", 3)
	m.DefineClass("slow", 0.3)
	m.AssignClass("fast", 0, 4)
	m.AssignClass("slow", 24, 32)
	m.SetNodeRate(13, 1.7)
	return m
}

// TestEventLawMatchesIndependentClocks runs push to convergence on the
// 32-cycle 300 times under the chain and 300 times under referenceRun, on
// a uniform, a skewed and a retuned map, and requires the two-sample
// Kolmogorov–Smirnov p-value above 0.01 for both the convergence time and
// the number of activations.
func TestEventLawMatchesIndependentClocks(t *testing.T) {
	const trials = 300
	retune := func(step int, setNode func(int, float64), setClass func(string, float64)) {
		switch step {
		case 2:
			setClass("fast", 0.6)
		case 4:
			setNode(20, 0)
		case 6:
			setClass("slow", 5)
		case 8:
			setNode(20, 2.5)
		}
	}
	cases := []struct {
		name   string
		rates  func() *RateMap
		retune retuneFunc
	}{
		{"uniform", func() *RateMap { return Uniform(32) }, nil},
		{"skewed", skewed32, nil},
		{"retuned", skewed32, retune},
	}
	for _, c := range cases {
		var eventT, eventN, refT, refN []float64
		for i := uint64(0); i < trials; i++ {
			et, en := eventRun(1000+i, c.rates(), c.retune)
			rt, rn := referenceRun(5000+i, c.rates(), c.retune)
			eventT, eventN = append(eventT, et), append(eventN, float64(en))
			refT, refN = append(refT, rt), append(refN, float64(rn))
		}
		for _, m := range []struct {
			what     string
			got, ref []float64
		}{{"time", eventT, refT}, {"events", eventN, refN}} {
			d, p := stats.KSTwoSample(m.got, m.ref)
			t.Logf("%s: %s: KS D = %.3f, p = %.4f", c.name, m.what, d, p)
			if p <= 0.01 {
				t.Errorf("%s: %s to convergence: KS D = %.3f, p = %.4f (means %.2f vs %.2f), want p > 0.01",
					c.name, m.what, d, p, stats.Mean(m.got), stats.Mean(m.ref))
			}
		}
	}
}

// TestChainGroupInvariant drives random SetNodeRate / SetClassRate
// sequences, with steps in between, and checks after every mutation that
// each node with a positive rate sits in exactly one group with
// 2^(k-1) < rate ≤ 2^k at a consistent position, parked nodes in none, the
// groups non-empty in ascending order, each group's count of members below
// its scale right, and Λ* = Σ|g|·2^k. It starts by moving a node between
// its group's scale and below it, both ways.
func TestChainGroupInvariant(t *testing.T) {
	values := []float64{0, 1, 2, 0.5, 0.3, 1.5, 3, 7.9, 800, 0.75, 1e-300, 5e-324, 1 << 31, 1<<31 + 1, maxRate}
	r := rng.New(77)
	s := New(gen.Cycle(64, graph.BackendSparse), core.Push{}, rng.New(78), Config{Rates: skewed(), MaxEvents: -1, Done: never})
	s.Step()
	for _, rate := range []float64{2, 1.5, 2} {
		s.SetNodeRate(30, rate)
		checkChain(t, s)
	}
	for op := 0; op < 2000; op++ {
		rate := values[r.Intn(len(values))]
		if r.Intn(4) == 0 {
			s.SetClassRate([]string{"fast", "slow"}[r.Intn(2)], rate)
		} else {
			s.SetNodeRate(r.Intn(64), rate)
		}
		checkChain(t, s)
		// Step now and then, while a unit of time is a bounded number of
		// candidates (a rate of 2^32 makes it billions).
		if op%100 == 0 && s.chain.total > 0 && s.chain.total < 1e6 {
			s.Step()
		}
	}
}

func checkChain(t *testing.T, s *Session) {
	t.Helper()
	c := s.chain
	seen := make([]int, s.n)
	total := 0.0
	for i, g := range c.groups {
		if len(g.members) == 0 || (i > 0 && c.groups[i-1].exp >= g.exp) || g.scale != math.Ldexp(1, g.exp) {
			t.Fatalf("group %d (exp %d, scale %v, %d members) breaks the group order", i, g.exp, g.scale, len(g.members))
		}
		below := 0
		for p, u := range g.members {
			seen[u]++
			rate := s.rates.Rate(int(u))
			if rate < g.scale {
				below++
			}
			if c.pos[u] != int32(p) || int(c.exp[u]>>1) != g.exp || (c.exp[u]&1 == 1) != (rate < g.scale) ||
				!(rate > g.scale/2 && rate <= g.scale) {
				t.Fatalf("node %d at rate %v filed at %d of group 2^%d (its pos %d, exp %d)", u, rate, p, g.exp, c.pos[u], c.exp[u])
			}
		}
		if below != g.below {
			t.Fatalf("group 2^%d counts %d members below its scale, holds %d", g.exp, g.below, below)
		}
		total += float64(len(g.members)) * g.scale
	}
	for u, k := range seen {
		if (s.rates.Rate(u) > 0) != (k == 1) || (k == 0 && c.pos[u] != -1) {
			t.Fatalf("node %d at rate %v sits in %d groups (pos %d)", u, s.rates.Rate(u), k, c.pos[u])
		}
	}
	if total != c.total {
		t.Fatalf("Λ* = %v, groups sum to %v", c.total, total)
	}
}
