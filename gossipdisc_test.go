package gossipdisc_test

import (
	"go/parser"
	"go/token"
	"math"
	"math/bits"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gossipdisc"
	"gossipdisc/internal/core"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

func TestQuickstartFlow(t *testing.T) {
	g := gossipdisc.Cycle(32)
	res := gossipdisc.Run(g, gossipdisc.Push{}, 42)
	if !res.Converged {
		t.Fatalf("push did not converge: %+v", res)
	}
	if !g.IsComplete() {
		t.Fatal("graph not complete")
	}
}

func TestPullFacade(t *testing.T) {
	g := gossipdisc.Path(20)
	res := gossipdisc.Run(g, gossipdisc.Pull{}, 7)
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("pull facade failed: %+v", res)
	}
}

func TestWithDoneCustomPredicate(t *testing.T) {
	g := gossipdisc.Path(20)
	res := gossipdisc.NewSession(g, gossipdisc.WithDone(func(g *gossipdisc.Graph) bool { return g.MinDegree() >= 4 })).Run()
	if !res.Converged || g.MinDegree() < 4 {
		t.Fatalf("custom done failed: %+v", res)
	}
}

func TestDirectedFacade(t *testing.T) {
	g := gossipdisc.DirectedCycle(10)
	res := gossipdisc.RunDirected(g, 3)
	if !res.Converged || !g.IsClosed() {
		t.Fatalf("directed facade failed: %+v", res)
	}
	if res.TargetArcs != 10*9 {
		t.Fatalf("target arcs %d", res.TargetArcs)
	}
}

func TestTrialsFacade(t *testing.T) {
	results := gossipdisc.Trials(6, 9, func(trial int, r *gossipdisc.Rand) *gossipdisc.Graph {
		return gossipdisc.ConnectedER(16, 0.2, r)
	}, gossipdisc.Push{})
	if len(results) != 6 {
		t.Fatalf("trial count %d", len(results))
	}
	for i, res := range results {
		if !res.Converged {
			t.Fatalf("trial %d did not converge", i)
		}
	}
}

func TestExactExpectedRounds(t *testing.T) {
	// Path P3 under push: exactly 2 expected rounds (see internal/markov).
	got := gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "push")
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("exact push P3 = %v want 2", got)
	}
	got = gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "pull")
	if math.Abs(got-4.0/3) > 1e-9 {
		t.Fatalf("exact pull P3 = %v want 4/3", got)
	}
}

func TestExactExpectedRoundsBadKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "flood")
}

func TestGraphConstructors(t *testing.T) {
	if gossipdisc.NewGraph(5).N() != 5 {
		t.Fatal("NewGraph wrong")
	}
	if g := gossipdisc.NewGraphOn(5, gossipdisc.BackendSparse); g.N() != 5 || g.M() != 0 {
		t.Fatal("NewGraphOn wrong")
	}
	r := gossipdisc.NewRand(1)
	if g := gossipdisc.ConnectedER(20, 0.2, r); !g.IsConnected() {
		t.Fatal("ConnectedER wrong")
	}
}

func TestFaultyAndPartialExported(t *testing.T) {
	g := gossipdisc.Cycle(16)
	res := gossipdisc.Run(g, gossipdisc.Wrap(gossipdisc.Push{}, gossipdisc.Fail(0.2)), 11)
	if !res.Converged {
		t.Fatal("faulty push did not converge")
	}
	h := gossipdisc.Cycle(16)
	res = gossipdisc.Run(h, gossipdisc.Wrap(gossipdisc.Pull{}, gossipdisc.Participation(0.5)), 12)
	if !res.Converged {
		t.Fatal("partial pull did not converge")
	}
}

func TestNewSessionMatchesRunFacades(t *testing.T) {
	// Zero options: Push from seed 1 — exactly Run.
	g1 := gossipdisc.Cycle(48)
	want := gossipdisc.Run(g1, gossipdisc.Push{}, 1)
	g2 := gossipdisc.Cycle(48)
	sess := gossipdisc.NewSession(g2)
	defer sess.Close()
	if got := sess.Run(); got != want || !g2.Equal(g1) {
		t.Fatalf("default session diverged from Run: %+v vs %+v", got, want)
	}

	// WithProcess + WithSeed reproduces the engine's config.
	g3 := gossipdisc.Cycle(100)
	wantPull := sim.Run(g3, core.Pull{}, rng.New(9), sim.Config{})
	g4 := gossipdisc.Cycle(100)
	pull := gossipdisc.NewSession(g4,
		gossipdisc.WithProcess(gossipdisc.Pull{}),
		gossipdisc.WithSeed(9))
	defer pull.Close()
	if got := pull.Run(); got != wantPull || !g4.Equal(g3) {
		t.Fatalf("pull session diverged from sim.Run: %+v vs %+v", got, wantPull)
	}
}

func TestNewSessionOptions(t *testing.T) {
	streamed := 0
	g := gossipdisc.Path(24)
	sess := gossipdisc.NewSession(g,
		gossipdisc.WithSeed(5),
		gossipdisc.WithMaxRounds(3),
		gossipdisc.WithAnalyzers(gossipdisc.SubscriberFunc(func(e *gossipdisc.Event) {
			streamed += len(e.Delta.NewEdges)
		})),
		gossipdisc.WithDone(func(g *gossipdisc.Graph) bool { return false }),
	)
	defer sess.Close()
	res := sess.Run()
	if res.Rounds != 3 || res.Converged {
		t.Fatalf("MaxRounds/Done options ignored: %+v", res)
	}
	if streamed != res.NewEdges {
		t.Fatalf("subscriber saw %d edges, result has %d", streamed, res.NewEdges)
	}
}

// TestWithMaxRoundsActivationBudgetSaturates: the event session turns
// WithMaxRounds into MaxRounds × n activations. At MaxInt/2 + 2 rounds
// (1<<62 + 1 on a 64-bit int) on 4 nodes the plain product wraps to a
// 4-activation budget; saturated, it is effectively unbounded.
func TestWithMaxRoundsActivationBudgetSaturates(t *testing.T) {
	opts := []gossipdisc.SessionOption{
		gossipdisc.WithMaxRounds(1<<(bits.UintSize-2) + 1),
		gossipdisc.WithDone(func(*gossipdisc.Graph) bool { return false }),
	}
	event := gossipdisc.NewEventSession(gossipdisc.Path(4), opts...)
	for i := 0; i < 3; i++ {
		if _, more := event.Step(); !more {
			t.Fatalf("event session stopped after %d events: %+v", event.Events(), event.Stats())
		}
	}
}

// TestExamplesImportOnlyRoot keeps the examples on the public API: no
// source file under examples/ may import an internal package. Only each
// file's own imports count, not those of its dependencies.
func TestExamplesImportOnlyRoot(t *testing.T) {
	files, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example sources under examples/")
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if p == "gossipdisc/internal" || strings.HasPrefix(p, "gossipdisc/internal/") {
				t.Errorf("%s imports %s; examples use the root package gossipdisc only", path, p)
			}
		}
	}
}
