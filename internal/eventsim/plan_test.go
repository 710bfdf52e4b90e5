package eventsim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
)

// The planner's fence: step picks up to maxBatch activations ahead on
// copies of the two streams and checks every act against its prediction,
// so a run must not depend on the plan. Each case runs a session as New
// plans it and the reference, which plans one activation at a time and
// predicts no draws (the path of a process the planner does not list), and
// requires one Result, one activation schedule and one delta stream.

// varDraws is push after u%3 extra raw words: the planner's prediction of
// two words per act fails on two nodes in three.
type varDraws struct{}

func (varDraws) Name() string { return "var-draws" }

func (varDraws) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	for range u % 3 {
		r.Uint64()
	}
	core.Push{}.Act(g, u, r, propose)
}

// predictPush has the planner plan s's process as it does Push: a batch
// at a time, two words per act, lists read ahead as a pair's. That is
// wrong for varDraws.
func predictPush(s *Session) *Session {
	s.predict = true
	return s
}

// planTrace is what a stepped run leaves: its result, and fingerprints of
// its activation schedule and of its delta stream.
type planTrace struct {
	Result
	Schedule, Deltas uint64
	Rounds           int
}

// planRun steps a fresh session from build, the reference if ref is set,
// calling mutate (if not nil) before every step, for at most steps steps.
func planRun(build func() *Session, ref bool, steps int, mutate func(step int, s *Session)) planTrace {
	s := build()
	if ref {
		s.predict = false
	}
	schedule, deltas := tap(s), simtest.NewFingerprint()
	s.Subscribe(deltas)
	for step := 0; step < steps; step++ {
		if mutate != nil {
			mutate(step, s)
		}
		if _, ok := s.Step(); !ok {
			break
		}
	}
	return planTrace{s.Stats(), schedule.Sum, deltas.Sum, s.Round()}
}

// samePlan requires the planned run of build and the reference to agree,
// and returns their trace.
func samePlan(t *testing.T, name string, build func() *Session, steps int, mutate func(int, *Session)) planTrace {
	t.Helper()
	if s := build(); !s.predict {
		t.Fatalf("%s: the planner predicts no draws", name)
	}
	got, want := planRun(build, false, steps, mutate), planRun(build, true, steps, mutate)
	if got != want {
		t.Fatalf("%s: planned %+v, reference %+v", name, got, want)
	}
	return got
}

// isolatedPath is a path over the first half of n nodes; the rest have no
// neighbor, so their acts draw nothing.
func isolatedPath(n int) *graph.Undirected {
	g := graph.NewUndirectedOn(n, graph.BackendSparse)
	for u := 0; u+1 < n/2; u++ {
		g.AddEdge(u, u+1)
	}
	return g
}

func TestPlanBatchesMatchOneAtATime(t *testing.T) {
	for _, p := range []core.Process{core.Push{}, core.Pull{}} {
		t.Run(p.Name(), func(t *testing.T) {
			if res := samePlan(t, "done mid-batch", func() *Session {
				return New(gen.Path(24), p, rng.New(3), Config{})
			}, 1<<20, nil); !res.Converged {
				t.Fatalf("done mid-batch: %+v did not converge", res)
			}
			if res := samePlan(t, "budget mid-batch", func() *Session {
				return New(gen.Cycle(64, graph.BackendSparse), p, rng.New(4), Config{MaxEvents: 1001, Done: never})
			}, 1<<20, nil); !res.BudgetExhausted || res.Events != 1001 {
				t.Fatalf("budget mid-batch: %+v", res)
			}
			// At Λ = 0.32 most rounds cross their boundary before a first
			// activation.
			if res := samePlan(t, "empty rounds", func() *Session {
				return New(gen.Cycle(32), p, rng.New(5), Config{Rates: NewRateMap(32, 0.01), Done: never})
			}, 200, nil); res.Rounds != 200 || res.Events == 0 || res.Events > res.Rounds/2 {
				t.Fatalf("empty rounds: %d events over %d rounds", res.Events, res.Rounds)
			}
			if res := samePlan(t, "isolated nodes", func() *Session {
				return New(isolatedPath(64), p, rng.New(6), Config{MaxEvents: 5000, Done: never})
			}, 1<<20, nil); res.Events != 5000 || res.NewEdges == 0 {
				t.Fatalf("isolated nodes: %+v", res)
			}
			// lawRates files 30 of its nodes below their group's scale.
			samePlan(t, "thinned candidates", func() *Session {
				return New(gen.Cycle(60, graph.BackendSparse), p, rng.New(7), Config{Rates: lawRates(), MaxEvents: 20_000, Done: never})
			}, 1<<20, nil)
			// Retunes between steps, parking and waking nodes and moving a
			// class ×100 and back, as in TestEventScheduleGolden.
			samePlan(t, "retuned", func() *Session {
				return New(gen.Cycle(64), p, rng.New(8), Config{Rates: skewed()})
			}, 1<<20, func(step int, s *Session) {
				switch step {
				case 2:
					s.SetNodeRate(20, 0)
				case 4:
					s.SetClassRate("fast", 800)
				case 5:
					s.SetNodeRate(20, 2)
					s.SetNodeRate(33, 1.7)
					s.SetClassRate("slow", 0)
				case 7:
					s.SetClassRate("fast", 8)
					s.SetClassRate("slow", 0.3)
				}
			})
		})
	}
	// A process whose draws the planner mispredicts, on isolated nodes
	// and thinned candidates too: the check after each act must catch
	// every miss.
	if res := samePlan(t, "var-draws", func() *Session {
		return predictPush(New(isolatedPath(60), varDraws{}, rng.New(9), Config{Rates: lawRates(), MaxEvents: 20_000, Done: never}))
	}, 1<<20, nil); res.Events != 20_000 {
		t.Fatalf("var-draws: %+v", res)
	}
}

// FuzzEventPlan runs Push, Pull or varDraws on n nodes, a path over half
// of them and the rest isolated, under a -rates spec, for a bounded budget
// and at most 64 steps: the planned run and the reference must agree.
func FuzzEventPlan(f *testing.F) {
	f.Add(uint16(64), "", uint64(1), uint16(3000), uint8(0))
	f.Add(uint16(60), "1.3,b=1.9:20-29,c=0.7:30-39,park=0:50-59", uint64(2), uint16(4000), uint8(1))
	f.Add(uint16(48), "0.5,fast=8:0-15,park=0:16-31", uint64(3), uint16(2000), uint8(2))
	f.Add(uint16(9), "0.01", uint64(4), uint16(100), uint8(0))
	f.Add(uint16(16), "4294967296,slow=1e-300:0-14", uint64(5), uint16(500), uint8(1))
	f.Fuzz(func(t *testing.T, n16 uint16, spec string, seed uint64, budget uint16, proc uint8) {
		n := int(n16 % 512)
		rates, err := ParseRateSpec(spec, n)
		if err != nil {
			return
		}
		build := func() *Session {
			cfg := Config{Rates: rates, MaxEvents: int(budget%8192) + 1}
			switch proc % 3 {
			case 0:
				return New(isolatedPath(n), core.Push{}, rng.New(seed), cfg)
			case 1:
				return New(isolatedPath(n), core.Pull{}, rng.New(seed), cfg)
			}
			return predictPush(New(isolatedPath(n), varDraws{}, rng.New(seed), cfg))
		}
		samePlan(t, "fuzz", build, 64, nil)
	})
}
