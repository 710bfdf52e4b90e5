package eventsim

import (
	"math"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
	"gossipdisc/internal/stream"
)

// This file is the event runtime's half of the conformance table
// (DESIGN.md, "Conformance table"): its row factory, its rows, and the
// tests that run internal/simtest's properties on them.

// scheduled is an event run's Result and the fingerprint of its
// activation schedule: which node fired at which time, bit for bit.
type scheduled struct {
	Result
	Schedule uint64
}

// eventRuntime is an event session whose Run reports its schedule too, so
// that every property comparing two runs compares their schedules.
type eventRuntime struct {
	simtest.Runtime
	s        *Session
	schedule *simtest.Fingerprint
}

func (r eventRuntime) Run() any   { return scheduled{r.s.Run(), r.schedule.Sum} }
func (r eventRuntime) Stats() any { return scheduled{r.s.Stats(), r.schedule.Sum} }

// tap folds every activation of s, as (node, bits of the event time), into
// a new fingerprint.
func tap(s *Session) *simtest.Fingerprint {
	fp := simtest.NewFingerprint()
	s.hook = func(u int, t float64) {
		fp.Ints(u)
		fp.Word(math.Float64bits(t))
	}
	return fp
}

// row is an event-session row; build makes a fresh session.
func row(name string, build func() *Session) simtest.Row {
	return simtest.Row{Name: name, New: func() simtest.Runtime {
		s := build()
		return eventRuntime{simtest.Undirected(s), s, tap(s)}
	}}
}

// skewedRow is push on the 64-cycle under skewed() rates.
func skewedRow(name string, seed uint64) simtest.Row {
	return row(name, func() *Session { return New(gen.Cycle(64), core.Push{}, rng.New(seed), Config{Rates: skewed()}) })
}

// table holds the event runtime's rows: uniform and skewed rates, and a
// uniform Population.
var table = []simtest.Row{
	row("uniform", func() *Session { return New(gen.Path(64), core.Push{}, rng.New(11), Config{}) }),
	skewedRow("skewed", 99),
	row("population", func() *Session { return New(gen.Path(48), core.NewPopulation(48, core.Push{}), rng.New(548), Config{}) }),
}

// TestBusEquivalenceEvent: on every row, 0, 1 or N subscribers (one of
// them the analyzer pack) see the stream Step hands back, with one Result
// and one activation schedule.
func TestBusEquivalenceEvent(t *testing.T) {
	health := func() stream.Subscriber { return analyze.NewHealth() }
	for _, r := range table {
		t.Run(r.Name, func(t *testing.T) { simtest.BusEquivalence(t, r, health) })
	}
}

// TestEventStepRunEquivalence: stepping, RunUntil and Run are a pure
// re-slicing of an event session's Run, schedule included, on every row.
func TestEventStepRunEquivalence(t *testing.T) {
	for _, r := range table {
		t.Run(r.Name, func(t *testing.T) { simtest.StepRun(t, r, nil) })
	}
}

// TestEventDeterminismReplay: the same (seed, rates) reproduces the same
// activation sequence — node by node, time by time, bit for bit — and the
// same Result and delta stream under any GOMAXPROCS (the runtime is
// single-goroutine, and its two streams are split from the seed alone).
// CI runs it under -race.
func TestEventDeterminismReplay(t *testing.T) {
	simtest.Identical(t, simtest.Axis([]int{1, 2, 8}, func(procs int) simtest.Row {
		r := skewedRow("skewed", 99)
		r.Procs = procs
		return r
	})...)
}

// TestPopulationUniformByteIdentityEvent: wrapping the process in a
// roleless Population does not change the event-driven trajectory; the
// schedule draws from its own clock stream.
func TestPopulationUniformByteIdentityEvent(t *testing.T) {
	bare := row("bare", func() *Session { return New(gen.Path(48), core.Push{}, rng.New(548), Config{}) })
	if out := simtest.Identical(t, bare, table[2]); !out.Result.(scheduled).Converged {
		t.Fatalf("run did not converge: %+v", out.Result)
	}
}

// TestPopulationMixedReplayEvent: a mixed population on the event runtime
// replays exactly from (seed, roles), and the roles alter the trajectory.
func TestPopulationMixedReplayEvent(t *testing.T) {
	const n = 48
	run := func(p core.Process) simtest.Row {
		return row(p.Name(), func() *Session { return New(gen.Path(n), p, rng.New(77), Config{MaxEvents: 4000}) })
	}
	pop, err := core.ParseRoleSpec("byzantine=10%,silent=4", n, core.Push{})
	if err != nil {
		t.Fatal(err)
	}
	if simtest.Identical(t, run(pop), run(pop)).Hash == simtest.Run(t, run(core.Push{})).Hash {
		t.Fatal("mixed population produced the uniform event trajectory — roles had no effect")
	}
}

// TestEventStepZeroAllocWithHealth: with the full analyzer pack (Age
// included) subscribed, a steady-state Step allocates nothing — the edge
// times ride a reused scratch slice, and the planner's buffers live on the
// stack — for push, for pull, and under non-power-of-two rates, whose
// thinned candidates fall inside planned batches.
func TestEventStepZeroAllocWithHealth(t *testing.T) {
	for _, c := range []struct {
		name  string
		p     core.Process
		rates *RateMap
	}{{"push", core.Push{}, nil}, {"pull", core.Pull{}, nil}, {"thinned", core.Push{}, lawRates()}} {
		s := New(gen.Cycle(60), c.p, rng.New(1), Config{Rates: c.rates, MaxEvents: -1, Done: never})
		s.Subscribe(analyze.NewHealth())
		simtest.ZeroAlloc(t, c.name, simtest.Undirected(s))
	}
}
