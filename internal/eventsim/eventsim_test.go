package eventsim

import (
	"fmt"
	"slices"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/simtest"
	"gossipdisc/internal/stream"
)

func never(g *graph.Undirected) bool { return false }

func TestEventRunConverges(t *testing.T) {
	g := gen.Path(16)
	res := Run(g, core.Push{}, rng.New(1), Config{})
	if !res.Converged || !g.IsComplete() || res.Events <= 0 || res.Time <= 0 || res.ParallelRounds != res.Time ||
		res.BudgetExhausted || res.Stalled {
		t.Fatalf("event push on the 16-path: %+v", res)
	}
}

func TestEventAlreadyComplete(t *testing.T) {
	res := Run(gen.Complete(5), core.Pull{}, rng.New(2), Config{})
	if !res.Converged || res.Events != 0 || res.Time != 0 {
		t.Fatalf("complete event run: %+v", res)
	}
}

func TestNewRejectsMismatchedRates(t *testing.T) {
	mustPanic(t, "New with a RateMap covering the wrong node count", func() {
		New(gen.Path(8), core.Push{}, rng.New(1), Config{Rates: Uniform(7)})
	})
}

// TestEventBudgetContract pins Config.MaxEvents to its budget contract: 0
// is the default, negative is unbounded for a session and the default for
// Run, and an exhausted budget stops at exactly MaxEvents with
// BudgetExhausted.
func TestEventBudgetContract(t *testing.T) {
	const n = 4
	defaultBudget := n * sim.DefaultMaxRounds(n)
	exhausted := func(t *testing.T, res Result, events int) {
		t.Helper()
		if res.Converged || res.Events != events || !res.BudgetExhausted {
			t.Fatalf("got %d events (converged=%v exhausted=%v), want %d exhausted", res.Events, res.Converged, res.BudgetExhausted, events)
		}
	}

	t.Run("zero selects the default budget", func(t *testing.T) {
		exhausted(t, Run(gen.Complete(n), core.Push{}, rng.New(1), Config{Done: never}), defaultBudget)
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
				t.Fatalf("MaxEvents=%d: %+v, want neither exhausted nor converged", maxEvents, res)
			}
		}
	})

	t.Run("facade folds negatives to the default budget", func(t *testing.T) {
		exhausted(t, Run(gen.Complete(n), core.Push{}, rng.New(1), Config{MaxEvents: -5, Done: never}), defaultBudget)
	})

	t.Run("exhausted budget stops exactly at MaxEvents", func(t *testing.T) {
		s := New(gen.Complete(n), core.Push{}, rng.New(1), Config{MaxEvents: 37, Done: never})
		exhausted(t, s.Run(), 37)
		if d, ok := s.Step(); d != nil || ok {
			t.Fatalf("Step after exhaustion returned (%v, %v), want (nil, false)", d, ok)
		}
	})

	t.Run("convergence wins over exhaustion", func(t *testing.T) {
		if res := Run(gen.Path(16), core.Push{}, rng.New(1), Config{}); !res.Converged || res.BudgetExhausted {
			t.Fatalf("converged run: %+v", res)
		}
	})
}

// skewed is a 64-node map with a fast class, a slow class and an override.
func skewed() *RateMap {
	m := NewRateMap(64, 1)
	m.DefineClass("fast", 8)
	m.DefineClass("slow", 0.25)
	m.AssignClass("fast", 0, 8)
	m.AssignClass("slow", 48, 64)
	m.SetNodeRate(13, 3.5)
	return m
}

// TestEventRateChangeDeterminism extends the replay property across mid-run
// rate mutations: two sessions applying the same mutation schedule at the
// same step boundaries replay identically, and the mutations do alter the
// activation sequence (they are not lost).
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
	d1, n1 := scheduleDigest(4242, skewed(), 0, mutate)
	d2, n2 := scheduleDigest(4242, skewed(), 0, mutate)
	if d1 != d2 || n1 != n2 {
		t.Fatalf("replay diverged: %#x over %d events vs %#x over %d", d1, n1, d2, n2)
	}
	if d3, _ := scheduleDigest(4242, skewed(), 0, nil); d3 == d1 {
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
	if d, ok := s.Step(); d == nil || !ok || d.Round != 1 || len(d.NewEdges) != 0 {
		t.Fatalf("Step over an empty round returned (%+v, %v)", d, ok)
	}
	if s.Time() != 1 || s.Round() != 1 || s.Events() != 0 || age.MeanAge() != 1 {
		t.Fatalf("after one empty round: time %v round %d events %d mean age %v", s.Time(), s.Round(), s.Events(), age.MeanAge())
	}
}

func TestEventDeltaStreamConsistency(t *testing.T) {
	traj := &metrics.Trajectory{}
	age := &analyze.Age{}
	streamed := 0
	fast := row("fast", func() *Session {
		m := NewRateMap(32, 1)
		m.DefineClass("fast", 4)
		m.AssignClass("fast", 0, 8)
		return New(gen.Cycle(32), core.Push{}, rng.New(8), Config{Rates: m})
	})
	// Invariants rides the run: edge times are aligned and non-decreasing.
	out := simtest.Run(t, fast, traj, age, stream.SubscriberFunc(func(e *stream.Event) {
		if e.Kind != stream.KindRound {
			return
		}
		streamed += len(e.Delta.NewEdges)
		for _, et := range e.Delta.EdgeTimes {
			if et > e.Time || et <= e.Time-1 {
				t.Fatalf("round %d at time %v: edge times %v", e.Delta.Round, e.Time, e.Delta.EdgeTimes)
			}
		}
		if max, _ := age.MaxAge(); age.MeanAge() < 0 || max < age.MeanAge() {
			t.Fatalf("round %d: mean age %v, max age %v", e.Delta.Round, age.MeanAge(), max)
		}
	}))
	if res := out.Result.(scheduled); !res.Converged || streamed != res.NewEdges {
		t.Fatalf("delta stream carried %d edges for %+v", streamed, res)
	}
	traj.Finalize()
	last := traj.Snapshots[len(traj.Snapshots)-1]
	if last.Missing != 0 || last.MinDegree != 31 {
		t.Fatalf("trajectory final snapshot: %+v", last)
	}
}

// TestEventAoIAccounting checks analyze.Age against the hook-and-diff
// oracle at every round boundary of a uniform-rate run.
func TestEventAoIAccounting(t *testing.T) {
	checkAge(t, ageCase{"uniform", New(gen.Cycle(24), core.Push{}, rng.New(11), Config{}), nil})
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
	for _, p := range []core.Process{core.Push{}, core.Pull{}} {
		for _, n := range []int{16, 64, 1000} {
			for _, stepped := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/stepped=%v", p.Name(), n, stepped), func(t *testing.T) {
					seed, maxEvents := uint64(n)+7, 0
					if n == 1000 {
						maxEvents = 30_000
					}
					g := gen.Cycle(n)
					s := New(g, p, rng.New(seed), Config{MaxEvents: maxEvents})
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
					tr := sim.RunAsync(h, p, r.Split(), sim.AsyncConfig{MaxTicks: maxEvents})
					if er.Events != tr.Ticks || er.Proposals != tr.Proposals || er.NewEdges != tr.NewEdges ||
						er.Converged != tr.Converged || er.BudgetExhausted != tr.BudgetExhausted || (n < 1000) != er.Converged {
						t.Fatalf("n = %d: event %+v, tick %+v", n, er, tr)
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
	mean := func(rate float64) float64 {
		times := sim.Trials(0, 8, 7, func(int, *rng.Rand) *graph.Undirected { return gen.Cycle(n) },
			func(g *graph.Undirected, r *rng.Rand) Result {
				return Run(g, core.Push{}, r, Config{Rates: NewRateMap(n, rate)})
			})
		total := 0.0
		for i, res := range times {
			if !res.Converged {
				t.Fatalf("rate %v trial %d failed: %+v", rate, i, res)
			}
			total += res.Time
		}
		return total / float64(len(times))
	}
	t1, t4 := mean(1), mean(4)
	if speedup := t1 / t4; speedup < 2.5 || speedup > 6 {
		t.Fatalf("4x rates gave %.2fx speedup (t1=%.1f t4=%.1f), want ~4x", speedup, t1, t4)
	}
}
