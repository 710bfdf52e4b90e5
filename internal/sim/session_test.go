package sim

import (
	"reflect"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
)

// TestSessionStepWithoutObserver: Step hands back a delta that keeps the
// delta contract and the session's counters even with nothing subscribed.
func TestSessionStepWithoutObserver(t *testing.T) {
	g := gen.Path(32)
	s := NewSession(g, core.Push{}, rng.New(8), Config{})
	defer s.Close()
	rt := simtest.Undirected(s)
	inv := simtest.NewInvariants(t, "path-32", rt)
	prevNew := 0
	for e, _ := rt.Step(); e != nil; e, _ = rt.Step() {
		inv.OnEvent(e)
		if got := s.Stats().NewEdges - prevNew; got != len(e.Delta.NewEdges) || e.Delta.Round != s.Round() {
			t.Fatalf("round %d (accessor %d): stats new edges %d != delta %d", e.Delta.Round, s.Round(), got, len(e.Delta.NewEdges))
		}
		prevNew = s.Stats().NewEdges
	}
	if !s.Converged() || !g.IsComplete() {
		t.Fatal("stepped run did not complete")
	}
}

// rangeActorsListed is the body of the two tests below: of procs — one value
// of every type of one substrate with an Act — exactly the types on list have
// the block form the round dispatches to. A wrapper that gained ActRange by
// embedding a walk would skip its own Act on the synchronous engines; it
// fails here until it is put on that list, which is where that gets decided.
func rangeActorsListed[G any, P pair](t *testing.T, list []rangeActor[G, P], procs []core.ProcessOn[G]) {
	t.Helper()
	listed := map[reflect.Type]bool{}
	for _, p := range list {
		listed[reflect.TypeOf(p)] = true
	}
	for _, p := range procs {
		_, has := p.(rangeActor[G, P])
		if on := listed[reflect.TypeOf(p)]; has != on {
			t.Errorf("%T (%s): has ActRange %v, listed %v", p, p.Name(), has, on)
		}
	}
}

// TestRangeActorsListed covers core's undirected processes against round.go's
// rangeActors: Push, Pull and the churn runtime's Crashed (over any inner)
// and CrashedPull have the block form; every other wrapper does not.
func TestRangeActorsListed(t *testing.T) {
	alive := []bool{true, true}
	rangeActorsListed(t, rangeActors, []core.Process{
		core.Push{}, core.Pull{}, core.PushPull{},
		core.Wrap(core.Pull{}, core.Fail(0.5)),
		core.Wrap(core.Push{}, core.Participation(0.5)),
		core.Crashed{Inner: core.Push{}, Alive: alive},
		core.Crashed{Inner: core.Pull{}, Alive: alive},
		core.CrashedPull{Alive: alive},
		core.Byzantine{Target: -1}, core.Selfish{}, core.Silent{},
		core.Wrap(core.Push{}, core.Fail(0.5)),
		core.Wrap(core.Pull{}, core.Crash(alive)),
		core.NewPopulation(2, core.Push{}),
		core.NewPopulation(2, core.Pull{}),
	})
}

// TestDirectedRangeActorsListed is the directed instantiation, over
// directedRangeActors.
func TestDirectedRangeActorsListed(t *testing.T) {
	rangeActorsListed(t, directedRangeActors, []core.DirectedProcess{
		core.DirectedTwoHop{},
		core.ByzantineDirected{Target: -1}, core.SilentDirected{},
		core.WrapDirected(core.DirectedTwoHop{}, core.Fail(0.5)),
		core.WrapDirected(core.DirectedTwoHop{}, core.Crash([]bool{true, true})),
		core.NewDirectedPopulation(2, core.DirectedTwoHop{}),
	})
}

// TestSessionRunUntilIsBreakpoint: RunUntil must stop without finishing the
// session, and a pred already satisfied must execute nothing.
func TestSessionRunUntilBreakpoint(t *testing.T) {
	g := gen.Path(64)
	s := NewSession(g, core.Push{}, rng.New(3), Config{})
	defer s.Close()
	if res := s.RunUntil(func(*graph.Undirected) bool { return true }); res.Rounds != 0 {
		t.Fatalf("satisfied pred still ran %d rounds", res.Rounds)
	}
	if res := s.RunUntil(func(g *graph.Undirected) bool { return g.MinDegree() >= 3 }); res.Converged || g.IsComplete() || g.MinDegree() < 3 {
		t.Fatalf("RunUntil did not stop at its predicate: %+v, min degree %d", res, g.MinDegree())
	}
	// The session is still live: driving on converges normally.
	if final := s.Run(); !final.Converged || !g.IsComplete() {
		t.Fatalf("post-RunUntil Run did not converge: %+v", final)
	}
}

// TestSessionCloseStopsStepping: Close is idempotent and a closed session
// refuses to step.
func TestSessionCloseStopsStepping(t *testing.T) {
	g := gen.Path(80)
	s := NewSession(g, core.Push{}, rng.New(2), Config{})
	s.Step()
	s.Close()
	s.Close()
	if d, more := s.Step(); d != nil || more {
		t.Fatal("closed session stepped")
	}
}
