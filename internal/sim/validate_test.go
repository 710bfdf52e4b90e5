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

// This file tests library-level config validation: the session
// constructors reject junk with a clear panic, or normalize it where the
// contract defines a meaning, as it does for negative budgets.

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

// TestNewSessionRejectsJunkConfig: negative worker counts, a NaN
// DensePhase and an unknown Mode panic at construction on both round
// substrates, with messages naming the field.
func TestNewSessionRejectsJunkConfig(t *testing.T) {
	// -1 is junk at the library surface (the CLIs accept it), and NaN
	// passes a plain range check. Each graph is done at entry, so an
	// unknown mode must panic at construction, not at a first step.
	for _, tc := range []struct {
		name, want string
		workers    int
		mode       CommitMode
		dense      float64
	}{
		{"minus one", "Config.Workers", -1, 0, 0},
		{"minus two", "Config.Workers", -2, 0, 0},
		{"large negative", "Config.Workers", -99, 0, 0},
		{"min int", "Config.Workers", math.MinInt, 0, 0},
		{"NaN dense phase", "DensePhase NaN outside [0, 1]", 0, CommitSynchronous, math.NaN()},
		{"unknown commit mode", "sim: unknown commit mode 7", 0, CommitMode(7), 0},
	} {
		t.Run("undirected "+tc.name, func(t *testing.T) {
			msg := mustPanic(t, func() {
				NewSession(gen.Complete(8), core.Push{}, rng.New(1), Config{Workers: tc.workers, Mode: tc.mode, DensePhase: tc.dense})
			})
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q, want %q", msg, tc.want)
			}
		})
		t.Run("directed "+tc.name, func(t *testing.T) {
			msg := mustPanic(t, func() {
				NewDirectedSession(gen.CompleteDigraph(8), core.DirectedTwoHop{}, rng.New(1),
					DirectedConfig{Workers: tc.workers, Mode: tc.mode, DensePhase: tc.dense})
			})
			// The directed panic names DirectedConfig.Workers.
			if !strings.Contains(msg, tc.want) || strings.Contains(tc.want, "Workers") && !strings.Contains(msg, "DirectedConfig.Workers") {
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
	// Unbounded sessions keep stepping; a positive budget stops exactly
	// there.
	never := func(g *graph.Undirected) bool { return false }
	for _, c := range []struct{ maxRounds, want int }{{-1, 40}, {-7, 40}, {5, 5}} {
		s := NewSession(gen.Cycle(16), core.Push{}, rng.New(1), Config{MaxRounds: c.maxRounds, Done: never})
		for i := 0; i < 40 && s.step(); i++ {
		}
		if r := s.Stats().Rounds; r != c.want {
			t.Fatalf("MaxRounds=%d ran %d rounds, want %d", c.maxRounds, r, c.want)
		}
		s.Close()
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
// fail-fast layer, for both session families.
func TestDensePhaseOutOfRangePanics(t *testing.T) { densePhaseOutOfRange(t, 1.5, -0.2) }

// densePhaseOutOfRange requires each fraction to panic at construction.
func densePhaseOutOfRange(t *testing.T, fracs ...float64) {
	for _, frac := range fracs {
		mustPanic(t, func() { NewSession(gen.Path(8), core.Push{}, rng.New(1), Config{DensePhase: frac}) })
		mustPanic(t, func() {
			NewDirectedSession(gen.DirectedCycle(8), core.DirectedTwoHop{}, rng.New(1), DirectedConfig{DensePhase: frac})
		})
	}
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
