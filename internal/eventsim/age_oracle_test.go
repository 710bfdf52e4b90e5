package eventsim

import (
	"bufio"
	"math"
	"strconv"
	"strings"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/export"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// ageOracle rebuilds age of information from the activation hook and graph
// diffs, independently of the delta stream: a node whose degree grew since
// the last look gained an edge at the previous activation's time, since
// commits are eager and every edge lands inside some activation.
type ageOracle struct {
	g    *graph.Undirected
	deg  []int
	last []float64
	area float64 // Σ_u of the closed sawtooth areas Δ²/2
	prev float64 // time of the activation not yet diffed
}

func newAgeOracle(s *Session) *ageOracle {
	o := &ageOracle{g: s.g, deg: make([]int, s.n), last: make([]float64, s.n)}
	for u := range o.deg {
		o.deg[u] = s.g.Degree(u)
	}
	s.hook = func(_ int, t float64) {
		o.diff()
		o.prev = t
	}
	return o
}

// diff stamps every node whose degree grew at the pending activation time.
func (o *ageOracle) diff() {
	for u, d := range o.deg {
		if now := o.g.Degree(u); now != d {
			o.deg[u] = now
			o.area += (o.prev - o.last[u]) * (o.prev - o.last[u]) / 2
			o.last[u] = o.prev
		}
	}
}

// at returns the mean and max age (with the first node holding it) at time
// T, and the time-averaged mean age over [0, T]: Σ_u of the sawtooth areas
// Δ²/2, each node's open tooth closed at T, divided by nT.
func (o *ageOracle) at(T float64) (mean, max float64, node int, avg float64) {
	o.diff()
	open := 0.0
	node = -1
	for u, l := range o.last {
		a := T - l
		mean += a
		open += a * a / 2
		if node == -1 || a > max {
			max, node = a, u
		}
	}
	n := float64(len(o.last))
	return mean / n, max, node, (o.area + open) / (n * T)
}

// ageCase is one skewed-rate event session; wake, if set, runs after each
// round.
type ageCase struct {
	name string
	s    *Session
	wake func(round int, s *Session)
}

// skewedSessions builds the oracle's event sessions: skewed and parked
// classes, push and pull, a class woken mid-run, and a budget that stops
// one run inside a round.
func skewedSessions(t *testing.T) []ageCase {
	t.Helper()
	build := func(spec string, n int, p core.Process, seed uint64, maxEvents int) *Session {
		rates, err := ParseRateSpec(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		return New(gen.Cycle(n), p, rng.New(seed), Config{Rates: rates, MaxEvents: maxEvents})
	}
	wakePhones := func(round int, s *Session) {
		if round == 20 {
			s.SetClassRate("phone", 2)
		}
	}
	return []ageCase{
		{"push/fast+slow", build("1,fast=8:0-5,slow=0.1:20-39", 48, core.Push{}, 1, 0), nil},
		{"pull/fast", build("0.5,fast=4:0-11", 40, core.Pull{}, 2, 0), nil},
		{"push/parked phones", build("1,server=4:0-7,phone=0:48-63", 64, core.Push{}, 3, 0), wakePhones},
		{"push/budget", build("1,fast=6:0-3", 32, core.Push{}, 4, 1001), nil},
	}
}

// TestAgeMatchesOracle checks analyze.Age, fed by the deltas' EdgeTimes,
// against the hook-and-diff oracle at every round boundary of skewed-rate
// event sessions, including the final partial round.
func TestAgeMatchesOracle(t *testing.T) {
	for _, tc := range skewedSessions(t) {
		t.Run(tc.name, func(t *testing.T) { checkAge(t, tc) })
	}
}

// stepOracle steps tc's session to its end with an oracle attached and
// hands check the oracle and the time at every round boundary.
func stepOracle(t *testing.T, tc ageCase, check func(o *ageOracle, now float64)) {
	s := tc.s
	o := newAgeOracle(s)
	for round := 1; ; round++ {
		d, ok := s.Step()
		if d == nil {
			break
		}
		check(o, s.Time())
		if !ok {
			break
		}
		if tc.wake != nil {
			tc.wake(round, s)
		}
	}
	if res := s.Stats(); !res.Converged && !res.BudgetExhausted {
		t.Fatalf("run neither converged nor exhausted its budget: %+v", res)
	}
}

// checkAge compares analyze.Age with the oracle after every round.
func checkAge(t *testing.T, tc ageCase) {
	age := &analyze.Age{}
	tc.s.Subscribe(age)
	stepOracle(t, tc, func(o *ageOracle, now float64) {
		mean, max, node, avg := o.at(now)
		gotMax, gotNode := age.MaxAge()
		if math.Abs(age.MeanAge()-mean) > 1e-9 || math.Abs(gotMax-max) > 1e-9 || gotNode != node ||
			math.Abs(age.TimeAvgMeanAge()-avg) > 1e-9 {
			t.Fatalf("t=%v: Age (mean %v, max %v at %d, avg %v), oracle (%v, %v at %d, %v)",
				now, age.MeanAge(), gotMax, gotNode, age.TimeAvgMeanAge(), mean, max, node, avg)
		}
		for u, l := range o.last {
			if age.LastUpdate(u) != l {
				t.Fatalf("t=%v: LastUpdate(%d) = %v, oracle %v", now, u, age.LastUpdate(u), l)
			}
		}
	})
}

// TestHealthAgeMeanIsExact scrapes gossip_age_mean from an exporter wired
// to the standard pack at every round boundary of skewed-rate event
// sessions: it must read the exact event-time mean age.
func TestHealthAgeMeanIsExact(t *testing.T) {
	for _, tc := range skewedSessions(t) {
		t.Run(tc.name, func(t *testing.T) {
			h := analyze.NewHealth()
			exp := export.NewPrometheus()
			exp.Attach(h)
			tc.s.Subscribe(h)
			tc.s.Subscribe(exp)
			stepOracle(t, tc, func(o *ageOracle, now float64) {
				want, _, _, _ := o.at(now)
				if got := scrapeGauge(t, exp, "gossip_age_mean"); math.Abs(got-want) > 1e-9 {
					t.Fatalf("t=%v: gossip_age_mean %v, exact mean age %v", now, got, want)
				}
			})
		})
	}
}

// scrapeGauge reads one unlabeled gauge from the exporter's text output.
func scrapeGauge(t *testing.T, exp *export.Prometheus, name string) float64 {
	t.Helper()
	var b strings.Builder
	if _, err := exp.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s line in the exposition", name)
	return 0
}
