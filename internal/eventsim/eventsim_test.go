package eventsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

func never(g *graph.Undirected) bool { return false }

func TestEventRunConverges(t *testing.T) {
	g := gen.Path(16)
	res := Run(g, core.Push{}, rng.New(1), Config{})
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("event push did not converge: %+v", res)
	}
	if res.Events <= 0 || res.Time <= 0 {
		t.Fatalf("bad accounting: %+v", res)
	}
	if res.ParallelRounds != res.Time {
		t.Fatalf("ParallelRounds %v != Time %v", res.ParallelRounds, res.Time)
	}
	if res.BudgetExhausted || res.Stalled {
		t.Fatalf("converged run flagged as budget-exhausted or stalled: %+v", res)
	}
}

func TestEventAlreadyComplete(t *testing.T) {
	res := Run(gen.Complete(5), core.Pull{}, rng.New(2), Config{})
	if !res.Converged || res.Events != 0 || res.Time != 0 {
		t.Fatalf("complete event run: %+v", res)
	}
}

func TestNewRejectsMismatchedRates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a RateMap covering the wrong node count")
		}
	}()
	New(gen.Path(8), core.Push{}, rng.New(1), Config{Rates: Uniform(7)})
}

// TestEventBudgetContract pins Config.MaxEvents against the same budget
// contract AsyncConfig.MaxTicks obeys (TestAsyncMaxTicksBudgetContract pins
// that runtime; the two tests live in separate packages because eventsim
// imports sim): 0 selects the default budget, negative means unbounded for
// stepped sessions while the Run facade folds it back to the default, and
// an exhausted budget stops at exactly MaxEvents with the explicit
// BudgetExhausted flag raised — never just Converged == false.
func TestEventBudgetContract(t *testing.T) {
	const n = 4
	defaultBudget := n * sim.DefaultMaxRounds(n)

	t.Run("zero selects the default budget", func(t *testing.T) {
		res := Run(gen.Complete(n), core.Push{}, rng.New(1), Config{Done: never})
		if res.Converged || res.Events != defaultBudget || !res.BudgetExhausted {
			t.Fatalf("got %d events (converged=%v exhausted=%v), want the default budget %d exhausted",
				res.Events, res.Converged, res.BudgetExhausted, defaultBudget)
		}
	})

	t.Run("negative means unbounded for sessions", func(t *testing.T) {
		for _, maxEvents := range []int{-1, -9} {
			s := New(gen.Complete(n), core.Push{}, rng.New(1), Config{MaxEvents: maxEvents, Done: never})
			for s.Events() <= defaultBudget {
				if _, ok := s.Step(); !ok {
					t.Fatalf("MaxEvents=%d: session stopped at %d events, want unbounded stepping past %d",
						maxEvents, s.Events(), defaultBudget)
				}
			}
			if res := s.Stats(); res.BudgetExhausted || res.Converged {
				t.Fatalf("MaxEvents=%d: %+v after %d events, want neither exhausted nor converged",
					maxEvents, res, s.Events())
			}
		}
	})

	t.Run("facade folds negatives to the default budget", func(t *testing.T) {
		res := Run(gen.Complete(n), core.Push{}, rng.New(1), Config{MaxEvents: -5, Done: never})
		if res.Converged || res.Events != defaultBudget || !res.BudgetExhausted {
			t.Fatalf("got %d events (converged=%v exhausted=%v), want the default budget %d exhausted",
				res.Events, res.Converged, res.BudgetExhausted, defaultBudget)
		}
	})

	t.Run("exhausted budget stops exactly at MaxEvents", func(t *testing.T) {
		s := New(gen.Complete(n), core.Push{}, rng.New(1), Config{MaxEvents: 37, Done: never})
		res := s.Run()
		if res.Converged || res.Events != 37 || !res.BudgetExhausted {
			t.Fatalf("got %d events (converged=%v exhausted=%v), want exactly 37 exhausted",
				res.Events, res.Converged, res.BudgetExhausted)
		}
		if d, ok := s.Step(); d != nil || ok {
			t.Fatalf("Step after exhaustion returned (%v, %v), want (nil, false)", d, ok)
		}
	})

	t.Run("convergence wins over exhaustion", func(t *testing.T) {
		res := Run(gen.Path(16), core.Push{}, rng.New(1), Config{})
		if !res.Converged || res.BudgetExhausted {
			t.Fatalf("converged run: %+v", res)
		}
	})
}

// activationTrace records the (node, time) activation sequence of one run.
func activationTrace(t *testing.T, seed uint64, build func() *RateMap, mutate func(step int, s *Session)) ([]int, []float64, Result) {
	t.Helper()
	g := gen.Cycle(64)
	s := New(g, core.Push{}, rng.New(seed), Config{Rates: build()})
	var nodes []int
	var times []float64
	s.hook = func(u int, tt float64) {
		nodes = append(nodes, u)
		times = append(times, tt)
	}
	step := 0
	for {
		if mutate != nil {
			mutate(step, s)
		}
		if _, ok := s.Step(); !ok {
			break
		}
		step++
	}
	return nodes, times, s.Stats()
}

func skewed() *RateMap {
	m := NewRateMap(64, 1)
	m.DefineClass("fast", 8)
	m.DefineClass("slow", 0.25)
	m.AssignClass("fast", 0, 8)
	m.AssignClass("slow", 48, 64)
	m.SetNodeRate(13, 3.5)
	return m
}

// TestEventDeterminismReplay is the determinism property the acceptance
// criteria name: the same (seed, rates) must reproduce the identical
// activation sequence — node by node, time by time, bit for bit — and the
// identical Result, for any GOMAXPROCS setting (the runtime is
// single-goroutine, and its two streams are split from the seed alone). CI
// runs it under -race.
func TestEventDeterminismReplay(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var refNodes []int
	var refTimes []float64
	var refRes Result
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		nodes, times, res := activationTrace(t, 99, skewed, nil)
		if len(nodes) == 0 {
			t.Fatal("no activations recorded")
		}
		if i == 0 {
			refNodes, refTimes, refRes = nodes, times, res
			continue
		}
		if len(nodes) != len(refNodes) {
			t.Fatalf("GOMAXPROCS=%d: %d activations, want %d", procs, len(nodes), len(refNodes))
		}
		for k := range nodes {
			if nodes[k] != refNodes[k] || times[k] != refTimes[k] {
				t.Fatalf("GOMAXPROCS=%d: activation %d = (%d, %v), want (%d, %v)",
					procs, k, nodes[k], times[k], refNodes[k], refTimes[k])
			}
		}
		if res != refRes {
			t.Fatalf("GOMAXPROCS=%d: result %+v, want %+v", procs, res, refRes)
		}
	}
}

// TestEventRateChangeDeterminism extends the replay property across mid-run
// rate mutations: two sessions applying the same mutation schedule at the
// same step boundaries replay identically.
func TestEventRateChangeDeterminism(t *testing.T) {
	mutate := func(step int, s *Session) {
		switch step {
		case 3:
			s.SetClassRate("fast", 0.5)
		case 5:
			s.SetNodeRate(20, 16)
		case 7:
			s.SetClassRate("slow", 4)
		}
	}
	n1, t1, r1 := activationTrace(t, 4242, skewed, mutate)
	n2, t2, r2 := activationTrace(t, 4242, skewed, mutate)
	if len(n1) != len(n2) || r1 != r2 {
		t.Fatalf("replay diverged: %d vs %d activations, %+v vs %+v", len(n1), len(n2), r1, r2)
	}
	for k := range n1 {
		if n1[k] != n2[k] || t1[k] != t2[k] {
			t.Fatalf("activation %d diverged: (%d, %v) vs (%d, %v)", k, n1[k], t1[k], n2[k], t2[k])
		}
	}
	// And the mutation schedule must actually change the trajectory
	// relative to the unmutated run (guards against mutations being lost).
	n3, _, _ := activationTrace(t, 4242, skewed, nil)
	same := len(n1) == len(n3)
	if same {
		for k := range n1 {
			if n1[k] != n3[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("rate mutations did not alter the activation sequence")
	}
}

func TestEventStalledAndReopen(t *testing.T) {
	g := gen.Path(3)
	s := New(g, core.Push{}, rng.New(5), Config{Rates: NewRateMap(3, 0)})
	res := s.Run()
	if res.Converged || !res.Stalled || res.Events != 0 {
		t.Fatalf("all-zero-rate run: %+v, want a stall with no events", res)
	}
	// Waking the middle node up reopens the session; push from the path
	// center completes K3.
	s.SetNodeRate(1, 1)
	res = s.Run()
	if !res.Converged || res.Stalled || !g.IsComplete() {
		t.Fatalf("reopened run: %+v", res)
	}
}

func TestEventEmptyRoundsAdvanceTime(t *testing.T) {
	s := New(gen.Path(3), core.Push{}, rng.New(1), Config{Rates: NewRateMap(3, 1e-9)})
	age := &analyze.Age{}
	s.Subscribe(age)
	d, ok := s.Step()
	if d == nil || !ok {
		t.Fatalf("Step over an empty round returned (%v, %v)", d, ok)
	}
	if d.Round != 1 || len(d.NewEdges) != 0 {
		t.Fatalf("empty round delta: round %d, %d edges", d.Round, len(d.NewEdges))
	}
	if s.Time() != 1 || s.Round() != 1 || s.Events() != 0 {
		t.Fatalf("after one empty round: time %v round %d events %d", s.Time(), s.Round(), s.Events())
	}
	if got := age.MeanAge(); got != 1 {
		t.Fatalf("mean age after one silent round = %v, want 1", got)
	}
}

func TestEventDeltaStreamConsistency(t *testing.T) {
	g := gen.Cycle(32)
	traj := &metrics.Trajectory{}
	age := &analyze.Age{}
	streamed := 0
	s := New(g, core.Push{}, rng.New(8), Config{
		Rates: func() *RateMap {
			m := NewRateMap(32, 1)
			m.DefineClass("fast", 4)
			m.AssignClass("fast", 0, 8)
			return m
		}(),
	})
	s.Subscribe(traj)
	s.Subscribe(age)
	s.Subscribe(stream.SubscriberFunc(func(e *stream.Event) {
		if e.Kind != stream.KindRound {
			return
		}
		streamed += len(e.Delta.NewEdges)
		if len(e.Delta.EdgeTimes) != len(e.Delta.NewEdges) {
			t.Fatalf("round %d: %d edge times for %d edges", e.Delta.Round, len(e.Delta.EdgeTimes), len(e.Delta.NewEdges))
		}
		for i, et := range e.Delta.EdgeTimes {
			if et > e.Time || et <= e.Time-1 || (i > 0 && et < e.Delta.EdgeTimes[i-1]) {
				t.Fatalf("round %d at time %v: edge times %v", e.Delta.Round, e.Time, e.Delta.EdgeTimes)
			}
		}
		if max, _ := age.MaxAge(); age.MeanAge() < 0 || max < age.MeanAge() {
			t.Fatalf("round %d: mean age %v, max age %v", e.Delta.Round, age.MeanAge(), max)
		}
	}))
	res := s.Run()
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	if streamed != res.NewEdges {
		t.Fatalf("delta stream carried %d edges, result says %d", streamed, res.NewEdges)
	}
	traj.Finalize()
	last := traj.Snapshots[len(traj.Snapshots)-1]
	if last.Missing != 0 || last.MinDegree != 31 {
		t.Fatalf("trajectory final snapshot: %+v", last)
	}
}

func TestEventAoIAccounting(t *testing.T) {
	g := gen.Cycle(24)
	s := New(g, core.Push{}, rng.New(11), Config{})
	age := &analyze.Age{}
	s.Subscribe(age)
	res := s.Run()
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	// MeanAge must agree with a direct scan over LastUpdate.
	sum := 0.0
	minLast := math.Inf(1)
	for u := 0; u < 24; u++ {
		lu := age.LastUpdate(u)
		if lu < 0 || lu > s.Time() {
			t.Fatalf("LastUpdate(%d) = %v outside [0, %v]", u, lu, s.Time())
		}
		sum += lu
		if lu < minLast {
			minLast = lu
		}
	}
	wantMean := s.Time() - sum/24
	if got := age.MeanAge(); math.Abs(got-wantMean) > 1e-9 {
		t.Fatalf("MeanAge %v, want %v", got, wantMean)
	}
	if got, _ := age.MaxAge(); math.Abs(got-(s.Time()-minLast)) > 1e-9 {
		t.Fatalf("MaxAge %v, want %v", got, s.Time()-minLast)
	}
	if avg := age.TimeAvgMeanAge(); avg <= 0 || avg > s.Time() {
		t.Fatalf("TimeAvgMeanAge %v outside (0, %v]", avg, s.Time())
	}
}

// TestEventMatchesTickExactly is the exact fence between the two
// asynchronous runtimes. At uniform rates the jump chain has one group
// whose members are in node order, so its act stream sees exactly the tick
// scheduler's loop (u := r.Intn(n); p.Act(g, u, r, …)): a run of K events
// must equal sim.RunAsync for K ticks on the derived act stream — the same
// adjacency lists in insertion order, proposals and new edges — whether it
// is driven by Run or by Step. The small cycles run to convergence, the
// large one stops on the budget.
func TestEventMatchesTickExactly(t *testing.T) {
	procs := []struct {
		name string
		p    core.Process
	}{{"push", core.Push{}}, {"pull", core.Pull{}}}
	for _, pc := range procs {
		for _, n := range []int{16, 64, 1000} {
			for _, stepped := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/stepped=%v", pc.name, n, stepped), func(t *testing.T) {
					seed := uint64(n) + 7
					maxEvents := 0
					if n == 1000 {
						maxEvents = 30_000
					}
					g := gen.Cycle(n)
					s := New(g, pc.p, rng.New(seed), Config{MaxEvents: maxEvents})
					if stepped {
						for _, ok := s.Step(); ok; _, ok = s.Step() {
						}
					} else {
						s.Run()
					}
					er := s.Stats()

					r := rng.New(seed)
					r.Split() // the clock stream
					h := gen.Cycle(n)
					tr := sim.RunAsync(h, pc.p, r.Split(), sim.AsyncConfig{MaxTicks: maxEvents})

					if er.Events != tr.Ticks || er.Proposals != tr.Proposals || er.NewEdges != tr.NewEdges ||
						er.Converged != tr.Converged || er.BudgetExhausted != tr.BudgetExhausted {
						t.Fatalf("event %+v, tick %+v", er, tr)
					}
					if (n < 1000) != er.Converged {
						t.Fatalf("converged = %v at n = %d: %+v", er.Converged, n, er)
					}
					var a, b []int
					for u := 0; u < n; u++ {
						a, b = g.Neighbors(u, a[:0]), h.Neighbors(u, b[:0])
						if !slices.Equal(a, b) {
							t.Fatalf("node %d: event adjacency %v, tick adjacency %v", u, a, b)
						}
					}
				})
			}
		}
	}
}

// TestEventFasterRatesConvergeFaster sanity-checks that rates mean what
// they say: doubling every clock should roughly halve convergence time.
func TestEventFasterRatesConvergeFaster(t *testing.T) {
	const n = 48
	const trials = 8
	mean := func(rate float64) float64 {
		root := rng.New(7)
		total := 0.0
		for i := 0; i < trials; i++ {
			r := root.Split()
			res := Run(gen.Cycle(n), core.Push{}, r, Config{Rates: NewRateMap(n, rate)})
			if !res.Converged {
				t.Fatalf("rate %v trial %d failed: %+v", rate, i, res)
			}
			total += res.Time
		}
		return total / trials
	}
	t1, t4 := mean(1), mean(4)
	speedup := t1 / t4
	if speedup < 2.5 || speedup > 6 {
		t.Fatalf("4x rates gave %.2fx speedup (t1=%.1f t4=%.1f), want ~4x", speedup, t1, t4)
	}
}
