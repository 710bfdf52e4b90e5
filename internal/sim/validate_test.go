package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file is the satellite table for library-level config validation:
// junk values used to sail into the engines and misbehave downstream
// (cmd/gossipsim's flag validation was the only gate), so the session
// constructors now reject them with a clear panic — or normalize them when
// the contract defines a meaning, as it does for negative budgets.

// mustPanic runs fn and returns the recovered panic message, failing the
// test if fn returns normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a construction panic, got none")
		}
		msg, _ = r.(string)
	}()
	fn()
	return
}

// TestNewSessionRejectsJunkConfig: negative worker counts panic at
// construction, for all three session families'
// constructors that take workers, with messages naming the field; so do a
// NaN DensePhase and an unknown Mode, for both round substrates.
func TestNewSessionRejectsJunkConfig(t *testing.T) {
	cases := []struct {
		name    string
		workers int
	}{
		// -1 is deliberately junk at the library surface: it used to fall
		// through to the sequential engine (and is accepted by the CLIs), so
		// a stale -1 caller fails fast instead of silently switching engine
		// families. math.MinInt was the retired autoscaler's sentinel.
		{"minus one", -1},
		{"minus two", -2},
		{"large negative", -99},
		{"min int", math.MinInt},
	}
	for _, tc := range cases {
		t.Run("undirected "+tc.name, func(t *testing.T) {
			msg := mustPanic(t, func() {
				NewSession(gen.Cycle(8), core.Push{}, rng.New(1), Config{Workers: tc.workers})
			})
			if !strings.Contains(msg, "Config.Workers") {
				t.Fatalf("panic %q does not name Config.Workers", msg)
			}
		})
		t.Run("directed "+tc.name, func(t *testing.T) {
			msg := mustPanic(t, func() {
				NewDirectedSession(gen.DirectedCycle(8), core.DirectedTwoHop{}, rng.New(1),
					DirectedConfig{Workers: tc.workers})
			})
			if !strings.Contains(msg, "DirectedConfig.Workers") {
				t.Fatalf("panic %q does not name DirectedConfig.Workers", msg)
			}
		})
	}

	// The checks written once in round.setup: a NaN DensePhase (x < 0 ||
	// x > 1 is false for it, so it used to disarm the mode in silence) and a
	// mode that is no CommitMode (it used to panic at the first step, or
	// never, when the graph was done at entry) — both substrates, on a graph
	// that is done at entry.
	junk := []struct {
		name, want string
		mode       CommitMode
		dense      float64
	}{
		{"NaN dense phase", "DensePhase NaN outside [0, 1]", CommitSynchronous, math.NaN()},
		{"unknown commit mode", "sim: unknown commit mode 7", CommitMode(7), 0},
	}
	for _, tc := range junk {
		t.Run("undirected "+tc.name, func(t *testing.T) {
			msg := mustPanic(t, func() {
				NewSession(gen.Complete(8), core.Push{}, rng.New(1), Config{Mode: tc.mode, DensePhase: tc.dense})
			})
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q, want %q", msg, tc.want)
			}
		})
		t.Run("directed "+tc.name, func(t *testing.T) {
			msg := mustPanic(t, func() {
				NewDirectedSession(gen.CompleteDigraph(8), core.DirectedTwoHop{}, rng.New(1),
					DirectedConfig{Mode: tc.mode, DensePhase: tc.dense})
			})
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q, want %q", msg, tc.want)
			}
		})
	}

	t.Run("facades validate too", func(t *testing.T) {
		mustPanic(t, func() {
			Run(gen.Cycle(8), core.Push{}, rng.New(1), Config{Workers: -3})
		})
		mustPanic(t, func() {
			RunDirected(gen.DirectedCycle(8), core.DirectedTwoHop{}, rng.New(1), DirectedConfig{Workers: -3})
		})
	})

	t.Run("valid worker counts construct", func(t *testing.T) {
		for _, w := range []int{0, 1, 7} {
			s := NewSession(gen.Cycle(8), core.Push{}, rng.New(1), Config{Workers: w})
			s.Close()
			d := NewDirectedSession(gen.DirectedCycle(8), core.DirectedTwoHop{}, rng.New(1),
				DirectedConfig{Workers: w})
			d.Close()
		}
	})
}

// TestSessionMaxRoundsNormalization: every negative MaxRounds — not just
// -1 — means unbounded for a stepped session; the facade folds negatives
// back to the default budget. Both are normalizations, not errors, so junk
// like MaxRounds = -7 behaves identically to -1 instead of misbehaving.
func TestSessionMaxRoundsNormalization(t *testing.T) {
	never := func(g *graph.Undirected) bool { return false }
	budgetOf := func(maxRounds int) int {
		s := NewSession(gen.Cycle(16), core.Push{}, rng.New(1),
			Config{MaxRounds: maxRounds, Done: never})
		defer s.Close()
		for i := 0; i < 40 && s.step(); i++ {
		}
		return s.Stats().Rounds
	}
	// Unbounded sessions keep stepping; a positive budget stops exactly
	// there. -1 and -7 must behave identically.
	if r := budgetOf(-1); r != 40 {
		t.Fatalf("MaxRounds=-1 stopped after %d rounds, want 40 (unbounded)", r)
	}
	if r := budgetOf(-7); r != 40 {
		t.Fatalf("MaxRounds=-7 stopped after %d rounds, want 40 (unbounded)", r)
	}
	if r := budgetOf(5); r != 5 {
		t.Fatalf("MaxRounds=5 ran %d rounds", r)
	}

	// The directed sessions share the normalization.
	d := NewDirectedSession(gen.DirectedCycle(12), core.DirectedTwoHop{}, rng.New(1),
		DirectedConfig{MaxRounds: -7, Done: func(g *graph.Directed) bool { return false }})
	defer d.Close()
	for i := 0; i < 30 && d.step(); i++ {
	}
	if r := d.Stats().Rounds; r != 30 {
		t.Fatalf("directed MaxRounds=-7 stopped after %d rounds, want 30 (unbounded)", r)
	}
}

// TestDensePhaseOutOfRangePanics: the [0, 1] gate lives in the same
// fail-fast layer (it predates this table; pinned here alongside the rest).
func TestDensePhaseOutOfRangePanics(t *testing.T) {
	mustPanic(t, func() {
		NewSession(gen.Cycle(8), core.Push{}, rng.New(1), Config{DensePhase: 1.5})
	})
	mustPanic(t, func() {
		NewDirectedSession(gen.DirectedCycle(8), core.DirectedTwoHop{}, rng.New(1),
			DirectedConfig{DensePhase: -0.2})
	})
}

// TestMembershipNodeOutsideMaskPanics: InsertNode / RemoveNode of a node
// the liveness mask has no slot for used to die with a bare runtime index
// error; they name the call and the range like their neighbours do.
func TestMembershipNodeOutsideMaskPanics(t *testing.T) {
	s := NewSession(gen.Cycle(8), core.Push{}, rng.New(1), Config{})
	defer s.Close()
	s.TrackMembership(make([]bool, 8))
	for _, u := range []int{-1, 8, 9} {
		for op, call := range map[string]func(int){"InsertNode": s.InsertNode, "RemoveNode": s.RemoveNode} {
			msg := mustPanic(t, func() { call(u) })
			if want := fmt.Sprintf("sim: %s(%d): outside [0, 8)", op, u); msg != want {
				t.Errorf("panic %q, want %q", msg, want)
			}
		}
	}
}
