package sim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// TestDeterminismSequentialPathUnchanged pins the round's rng consumption
// (one stream, node order) to a golden Result: if it fails, the round's
// bit-compatibility contract is broken.
func TestDeterminismSequentialPathUnchanged(t *testing.T) { checkLegacyGolden(t, Config{}) }

// checkLegacyGolden runs push on the 32-cycle, seed 1, on cfg.
func checkLegacyGolden(t *testing.T, cfg Config) {
	t.Helper()
	g := gen.Cycle(32)
	res := Run(g, core.Push{}, rng.New(1), cfg)
	want := Result{Rounds: 151, Converged: true, Proposals: 4526, NewEdges: 464, DuplicateProposals: 4062}
	if res != want || !g.IsComplete() {
		t.Fatalf("sequential path diverged from seed release: got %+v want %+v", res, want)
	}
}

// slotProbe records, per node, the edge count observed at Act time and
// proposes the edge to the next node. Each node writes its own slot.
type slotProbe struct {
	observedM []int
}

func (s *slotProbe) Name() string { return "slot-probe" }
func (s *slotProbe) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	s.observedM[u] = g.M()
	propose(u, (u+1)%g.N())
}

// probeRound runs one round of slotProbe on the n-star.
func probeRound(n int, cfg Config) (*graph.Undirected, []int) {
	g := gen.Star(n)
	p := &slotProbe{observedM: make([]int, n)}
	cfg.MaxRounds = 1
	Run(g, p, rng.New(7), cfg)
	return g, p.observedM
}

// checkSynchronous: in synchronous mode no node may observe another
// proposal of the same round — the G_t → G_{t+1} contract — and every
// proposal commits.
func checkSynchronous(t *testing.T, n int, cfg Config) {
	t.Helper()
	g, observed := probeRound(n, cfg)
	for u, m := range observed {
		if m != n-1 || !g.HasEdge(u, (u+1)%n) {
			t.Fatalf("node %d observed mid-round edge count %d (want %d), edge to %d committed: %v",
				u, m, n-1, (u+1)%n, g.HasEdge(u, (u+1)%n))
		}
	}
}

// TestParallelSynchronousSemantics: the same on 97 nodes, which the one
// act call covers in full.
func TestParallelSynchronousSemantics(t *testing.T) { checkSynchronous(t, 97, Config{}) }

// checkDuplicates: fixedProbe proposes one edge from each of n nodes, so
// round one has 1 new edge and n-1 duplicates.
func checkDuplicates(t *testing.T, n int, cfg Config) {
	t.Helper()
	cfg.MaxRounds = 1
	if res := Run(gen.Star(n), fixedProbe{}, rng.New(9), cfg); res.NewEdges != 1 || res.DuplicateProposals != n-1 || res.Proposals != n {
		t.Fatalf("duplicate accounting: %+v", res)
	}
}

// TestParallelDuplicateAccounting: duplicates within one round are counted
// on 100 nodes as on 4.
func TestParallelDuplicateAccounting(t *testing.T) { checkDuplicates(t, 100, Config{}) }

// TestParallelEngineInvariants: a full run preserves the graph invariants
// and reaches the terminal object (the complete graph, the closure).
func TestParallelEngineInvariants(t *testing.T) {
	g := gen.RandomTree(130, rng.New(21))
	if res := Run(g, core.PushPull{}, rng.New(22), Config{}); !res.Converged || !g.IsComplete() {
		t.Fatalf("push-pull did not complete: %+v", res)
	}
	g.CheckInvariants()
	d := gen.DirectedCycle(40)
	if res := RunDirected(d, core.DirectedTwoHop{}, rng.New(23), DirectedConfig{}); !res.Converged || !d.IsClosed() {
		t.Fatalf("directed run did not close: %+v", res)
	}
	d.CheckInvariants()
}

// TestParallelObserverAndDone: subscribers and a custom Done predicate run
// on the stepping goroutine between rounds.
func TestParallelObserverAndDone(t *testing.T) {
	g, res := observed(t, 80, 31, Config{Done: func(g *graph.Undirected) bool { return g.MinDegree() >= 3 }})
	if !res.Converged || g.MinDegree() < 3 {
		t.Fatalf("custom done not reached: %+v", res)
	}
}

// TestParallelTinyGraphs: round edge cases — n == 0, 1 and 3, and a graph
// complete at entry, which consumes nothing. On the ones that run, every
// node acts exactly once per round.
func TestParallelTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Undirected{gen.Path(3), graph.NewUndirected(0), graph.NewUndirected(1), gen.Complete(5)} {
		done := g.IsComplete()
		res := Run(g, core.Push{}, rng.New(1), Config{})
		if !res.Converged || !g.IsComplete() || done && (res.Rounds != 0 || res.Proposals != 0) {
			t.Fatalf("n=%d, complete at entry %v: %+v", g.N(), done, res)
		}
	}
	for _, n := range []int{0, 1, 3, 33} {
		seen := make([]int, n)
		NewSession(gen.Path(n), nodeCounter{seen}, rng.New(1), Config{Done: func(*graph.Undirected) bool { return false }, MaxRounds: 1}).Run()
		for u, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: node %d acted %d times in one round", n, u, c)
			}
		}
	}
}

// fixedArcProbe proposes an arc the directed cycle already has, so every
// round exercises the full propose/commit path without growing the graph.
type fixedArcProbe struct{}

func (fixedArcProbe) Name() string { return "fixed-arc-probe" }
func (fixedArcProbe) Act(g *graph.Directed, u int, r *rng.Rand, propose func(a, b int)) {
	propose(0, 1)
}

// TestActMayKeepState: every round acts on the stepping goroutine, so a
// process may keep plain, unsynchronized state in Act. Under -race a
// counter bumped on every call must count n calls per round, and the run
// must give Push's Result.
func TestActMayKeepState(t *testing.T) {
	p := &countingPush{}
	res := Run(gen.Cycle(256), p, rng.New(5), Config{MaxRounds: 40})
	if want := Run(gen.Cycle(256), core.Push{}, rng.New(5), Config{MaxRounds: 40}); res != want {
		t.Fatalf("counting push: %+v; push: %+v", res, want)
	}
	if p.calls != 256*res.Rounds {
		t.Fatalf("%d calls over %d rounds of 256 nodes", p.calls, res.Rounds)
	}
}

// countingPush is Push with a plain per-call counter.
type countingPush struct{ calls int }

func (*countingPush) Name() string { return "counting-push" }
func (c *countingPush) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	c.calls++
	core.Push{}.Act(g, u, r, propose)
}

// nodeCounter counts each node's Act calls and proposes nothing.
type nodeCounter struct{ seen []int }

func (nodeCounter) Name() string { return "node-counter" }
func (c nodeCounter) Act(_ *graph.Undirected, u int, _ *rng.Rand, _ func(a, b int)) {
	c.seen[u]++
}
