package sim

import (
	"fmt"
	"reflect"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
	"gossipdisc/internal/stream"
)

// This file is the synchronous runtimes' half of the conformance table
// (DESIGN.md, "Conformance table"): the row factories, the table, and the
// tests that run internal/simtest's properties on its rows. Invariants
// rides every run a property makes.

// session is a Session row: p on a fresh build(), seeded seed, on cfg.
func session(name string, build func() *graph.Undirected, p core.Process, seed uint64, cfg Config) simtest.Row {
	return simtest.Row{Name: name, New: func() simtest.Runtime {
		return simtest.Undirected(NewSession(build(), p, rng.New(seed), cfg))
	}}
}

// directed is a DirectedSession row.
func directed(name string, build func() *graph.Directed, p core.DirectedProcess, seed uint64, cfg DirectedConfig) simtest.Row {
	return simtest.Row{Name: name, New: func() simtest.Runtime {
		return simtest.Directed(NewDirectedSession(build(), p, rng.New(seed), cfg))
	}}
}

// cycle, tree and strong build the rows' start graphs.
func cycle(n int, b ...graph.Backend) func() *graph.Undirected {
	return func() *graph.Undirected { return gen.Cycle(n, b...) }
}

func tree(n int, seed uint64) func() *graph.Undirected {
	return func() *graph.Undirected { return gen.RandomTree(n, rng.New(seed)) }
}

func strong(n int, seed uint64, b ...graph.Backend) func() *graph.Directed {
	return func() *graph.Directed { return gen.RandomStronglyConnected(n, n/3, rng.New(seed), b...) }
}

// table has one row per engine family, each run to its end: Session with
// and without the dense phase, eager, with membership tracked and under a
// uniform Population; DirectedSession. TestBusEquivalence runs every row;
// the StepRun tests split it by family. Config.Workers is ignored, so the
// rows that set it run the same round as w=0; they stay until the field
// goes (ROADMAP item 1).
var table = func() []simtest.Row {
	var rows []simtest.Row
	for _, w := range []int{0, 1, 4} {
		for _, dense := range []float64{0, 0.3} {
			rows = append(rows, session(fmt.Sprintf("w=%d/dense=%v", w, dense), cycle(256), core.Push{}, 7,
				Config{Workers: w, DensePhase: dense}))
		}
	}
	for _, c := range []DirectedConfig{{Workers: 0}, {Workers: 1, DensePhase: 0.5}, {Workers: 4}} {
		rows = append(rows, directed(fmt.Sprintf("directed/w=%d/dense=%v", c.Workers, c.DensePhase), strong(96, 9),
			core.DirectedTwoHop{}, 43, c))
	}
	return append(rows,
		session("eager", tree(150, 77), core.Push{}, 42, Config{Mode: CommitEager}),
		session("pop/w=1", cycle(256), core.NewPopulation(256, core.Pull{}), 7, Config{Workers: 1}),
		directed("pop/directed", strong(96, 9), core.NewDirectedPopulation(96, core.DirectedTwoHop{}), 43, DirectedConfig{}),
		simtest.Row{Name: "member", New: membershipRow},
	)
}()

// membershipRow is a membership-tracked session on a 40-cycle: node 10
// leaves and node 3 leaves and rejoins before the first round, so the
// first delta carries a join and two leaves, and the run ends when every
// member pair is adjacent.
func membershipRow() simtest.Runtime {
	var s *Session
	s, _ = tracked(gen.Cycle(40), 40, 6, Config{Done: func(*graph.Undirected) bool { return s.Coverage() == 1 }})
	s.RemoveNode(3)
	s.RemoveNode(10)
	s.InsertNode(3)
	return simtest.Undirected(s)
}

// conform runs prop on every table row named in names, or whose name
// starts with one of them and a slash.
func conform(t *testing.T, prop func(*testing.T, simtest.Row), names ...string) {
	for _, row := range table {
		for _, name := range names {
			if row.Name == name || len(row.Name) > len(name) && row.Name[:len(name)+1] == name+"/" {
				t.Run(row.Name, func(t *testing.T) { prop(t, row) })
				break
			}
		}
	}
}

// TestBusEquivalence: on every row, 0, 1 or N subscribers (one of them the
// analyzer pack) see the stream Step hands back, with one Result.
func TestBusEquivalence(t *testing.T) {
	health := func() stream.Subscriber { return analyze.NewHealth() }
	for _, row := range table {
		t.Run(row.Name, func(t *testing.T) { simtest.BusEquivalence(t, row, health) })
	}
}

// stepRun is simtest.StepRun, breaking at half the work, on a converging row.
func stepRun(t *testing.T, row simtest.Row) { converged(t, simtest.StepRun(t, row, nil)) }

// TestSessionStepRunEquivalence: stepping, RunUntil and Run are a pure
// re-slicing of Run's round sequence, on the Session rows without the
// dense phase.
func TestSessionStepRunEquivalence(t *testing.T) {
	conform(t, stepRun, "w=0/dense=0", "w=1/dense=0", "w=4/dense=0", "eager", "member", "pop")
}

// TestDenseSessionStepRunEquivalence is the same on the dense-phase rows,
// driven by RunUntil up to the switch to complement sampling.
func TestDenseSessionStepRunEquivalence(t *testing.T) {
	conform(t, func(t *testing.T, row simtest.Row) {
		converged(t, simtest.StepRun(t, row, func(rt simtest.Runtime) bool { return simtest.Session(rt).(*Session).InDensePhase() }))
	}, "w=0/dense=0.3", "w=1/dense=0.3", "w=4/dense=0.3")
}

// TestDirectedSessionStepRunEquivalence is the same on the directed rows;
// a session knows its TargetArcs before its first step.
func TestDirectedSessionStepRunEquivalence(t *testing.T) {
	conform(t, func(t *testing.T, row simtest.Row) {
		stepRun(t, row)
		if got, want := row.New().Stats().(DirectedResult).TargetArcs, simtest.Run(t, row).Result.(DirectedResult).TargetArcs; got != want {
			t.Fatalf("TargetArcs %d before the first step, %d after the run", got, want)
		}
	}, "directed")
}

// steady is a session seeded seed that never finishes (allocation checks).
func steady(g *graph.Undirected, p core.Process, seed uint64, cfg Config) *Session {
	cfg.MaxRounds, cfg.Done = -1, func(*graph.Undirected) bool { return false }
	return NewSession(g, p, rng.New(seed), cfg)
}

// TestSessionZeroAllocStep: a steady-state Step allocates nothing, through
// per-node acts and through the block acts (ActRange) of a bare Push or
// Pull on K_70, two full blocks and a ragged one, and the masked ones of
// Crashed{Push} and CrashedPull on a membership-tracked session.
func TestSessionZeroAllocStep(t *testing.T) {
	alive := make([]bool, 70)
	for u := range alive {
		alive[u] = u%4 != 1
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Undirected
		p       core.Process
		members []bool // the TrackMembership mask, if any
	}{
		{"fixed-probe", gen.Star(64), fixedProbe{}, nil},
		{"push", gen.Complete(70), core.Push{}, nil},
		{"pull", gen.Complete(70), core.Pull{}, nil},
		{"crashed-push", gen.Complete(70), core.Crashed{Inner: core.Push{}, Alive: alive}, alive},
		{"crashed-pull", gen.Complete(70), core.CrashedPull{Alive: alive}, alive},
	} {
		s := steady(tc.g, tc.p, 1, Config{})
		if tc.members != nil {
			s.TrackMembership(tc.members)
		}
		simtest.ZeroAlloc(t, tc.name, simtest.Undirected(s))
		if s.Stats().Proposals == 0 {
			t.Errorf("%s: no proposals, so the steps measured nothing", tc.name)
		}
	}
}

// TestDirectedSessionZeroAllocStep: the same for a bare DirectedTwoHop on
// the complete digraph on 70 nodes, whose act is DirectedTwoHop.ActRange.
func TestDirectedSessionZeroAllocStep(t *testing.T) {
	never := func(*graph.Directed) bool { return false }
	s := NewDirectedSession(gen.CompleteDigraph(70), core.DirectedTwoHop{}, rng.New(1), DirectedConfig{MaxRounds: -1, Done: never})
	simtest.ZeroAlloc(t, "directed", simtest.Directed(s))
	if s.Stats().Proposals == 0 {
		t.Error("no proposals, so the steps measured nothing")
	}
}

// probeAllocs runs ZeroAlloc on fixedProbe over the 64-star on cfg, with a
// fresh subscriber from each of subs.
func probeAllocs(t *testing.T, cfg Config, subs ...func() stream.Subscriber) {
	s := NewSession(gen.Star(64), fixedProbe{}, rng.New(1), cfg)
	for _, sub := range subs {
		s.Subscribe(sub())
	}
	simtest.ZeroAlloc(t, "fixed-probe", simtest.Undirected(s))
}

// TestSessionZeroAllocStepWithAnalyzer: the analyzer pack and a no-op
// subscriber keep the steady-state Step allocation-free.
func TestSessionZeroAllocStepWithAnalyzer(t *testing.T) {
	probeAllocs(t, Config{MaxRounds: -1, Done: func(*graph.Undirected) bool { return false }},
		func() stream.Subscriber { return analyze.NewHealth() },
		func() stream.Subscriber { return stream.SubscriberFunc(func(*stream.Event) {}) })
}

// TestDenseZeroAllocStep: the dense act keeps a steady Step allocation-free.
func TestDenseZeroAllocStep(t *testing.T) {
	s := steady(gen.Star(64), core.Push{}, 1, Config{DensePhase: 1})
	simtest.ZeroAlloc(t, "dense", simtest.Undirected(s))
	if !s.InDensePhase() {
		t.Fatal("DensePhase=1 session not in dense phase")
	}
}

// TestPopulationStepZeroAlloc: a uniform Population's dispatch keeps a
// steady Step allocation-free, exactly like the bare process.
func TestPopulationStepZeroAlloc(t *testing.T) {
	s := steady(gen.Complete(64), core.NewPopulation(64, core.Push{}), 13, Config{})
	simtest.ZeroAlloc(t, "uniform-population", simtest.Undirected(s))
}

// TestEngineSteadyStateAllocs: a bounded run's rounds allocate nothing
// once its buffers are warm.
func TestEngineSteadyStateAllocs(t *testing.T) { probeAllocs(t, Config{MaxRounds: 1050}) }

// TestEngineSteadyStateAllocsDirected is the same for the directed engine.
func TestEngineSteadyStateAllocsDirected(t *testing.T) {
	s := NewDirectedSession(gen.DirectedCycle(64), fixedArcProbe{}, rng.New(1), DirectedConfig{MaxRounds: 1050})
	simtest.ZeroAlloc(t, "fixed-arc-probe", simtest.Directed(s))
}

// TestDeltaSteadyStateAllocs: the delta pipeline keeps a bounded run's
// rounds allocation-free with a subscriber reading every delta.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	sink := 0
	probeAllocs(t, Config{MaxRounds: 1050}, func() stream.Subscriber {
		return stream.SubscriberFunc(func(e *stream.Event) { sink += len(e.Delta.NewEdges) + e.Delta.EdgesRemaining })
	})
}

// workers is the Workers axis of one Session configuration.
func workers(ws []int, build func() *graph.Undirected, p core.Process, seed uint64, cfg Config) []simtest.Row {
	return simtest.Axis(ws, func(w int) simtest.Row {
		cfg.Workers = w
		return session(fmt.Sprintf("w=%d", w), build, p, seed, cfg)
	})
}

// converged fails t unless the Outcome's run converged.
func converged(t *testing.T, o simtest.Outcome) {
	t.Helper()
	if !reflect.ValueOf(o.Result).FieldByName("Converged").Bool() {
		t.Fatalf("run did not converge: %+v", o.Result)
	}
}

// GOMAXPROCS is not an input of a run: same seed ⇒ the same Result and
// delta stream for every GOMAXPROCS, and, under CommitEager, with the dense
// phase armed or not. CI runs these under -race.

func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	simtest.Identical(t, simtest.Axis([]int{1, 2, 8}, func(procs int) simtest.Row {
		row := session(fmt.Sprintf("procs=%d", procs), tree(200, 77), core.Push{}, 42, Config{})
		row.Procs = procs
		return row
	})...)
}

func TestDenseEagerIgnored(t *testing.T) {
	simtest.Identical(t, simtest.Axis([]float64{0, 0.5}, func(dense float64) simtest.Row {
		return session(fmt.Sprintf("dense=%v", dense), cycle(64), core.Push{}, 3, Config{Mode: CommitEager, DensePhase: dense})
	})...)
}

// Config.Workers is ignored until it goes (ROADMAP item 1): setting it
// gives the default's Result and delta stream, with the dense phase on and
// off and on the directed session.

func TestDenseDeterminismAcrossWorkers(t *testing.T) {
	converged(t, simtest.Identical(t, workers([]int{0, 1, 8}, tree(200, 77), core.Push{}, 42, Config{DensePhase: 0.4})...))
}

func TestDenseDeterminismAcrossWorkersDirected(t *testing.T) {
	converged(t, simtest.Identical(t, simtest.Axis([]int{0, 1, 8}, func(w int) simtest.Row {
		return directed(fmt.Sprintf("w=%d", w), strong(96, 9), core.DirectedTwoHop{}, 43, DirectedConfig{Workers: w, DensePhase: 0.5})
	})...))
}

func TestDenseDeltaStreamDeterministicAcrossWorkers(t *testing.T) {
	converged(t, simtest.Identical(t, workers([]int{0, 1, 8}, cycle(150), core.Pull{}, 5, Config{DensePhase: 0.3})...))
}

func TestDeltaStreamDeterministicAcrossWorkers(t *testing.T) {
	converged(t, simtest.Identical(t, workers([]int{0, 1, 8}, cycle(140), core.Push{}, 12, Config{})...))
}
