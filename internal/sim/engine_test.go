package sim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// TestDeterminismSequentialPathUnchanged pins the Workers == 0 engine's
// rng consumption (one stream, node order) to a golden Result: if it
// fails, the sequential path's bit-compatibility contract is broken.
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

// TestParallelSynchronousSemantics: the sharded engine keeps it too; 97 is
// not a multiple of the shard size, so the tail shard is exercised.
func TestParallelSynchronousSemantics(t *testing.T) { checkSynchronous(t, 97, Config{Workers: 4}) }

// checkDuplicates: fixedProbe proposes one edge from each of n nodes, so
// round one has 1 new edge and n-1 duplicates.
func checkDuplicates(t *testing.T, n int, cfg Config) {
	t.Helper()
	cfg.MaxRounds = 1
	if res := Run(gen.Star(n), fixedProbe{}, rng.New(9), cfg); res.NewEdges != 1 || res.DuplicateProposals != n-1 || res.Proposals != n {
		t.Fatalf("duplicate accounting: %+v", res)
	}
}

// TestParallelDuplicateAccounting: duplicates across shards are counted
// exactly as the sequential engine counts them.
func TestParallelDuplicateAccounting(t *testing.T) { checkDuplicates(t, 100, Config{Workers: 4}) }

// TestParallelEngineInvariants: a full parallel run preserves the graph
// invariants and reaches the same terminal object (the complete graph).
func TestParallelEngineInvariants(t *testing.T) {
	g := gen.RandomTree(130, rng.New(21))
	if res := Run(g, core.PushPull{}, rng.New(22), Config{Workers: 4}); !res.Converged || !g.IsComplete() {
		t.Fatalf("parallel push-pull did not complete: %+v", res)
	}
	g.CheckInvariants()
	d := gen.DirectedCycle(40)
	if res := RunDirected(d, core.DirectedTwoHop{}, rng.New(23), DirectedConfig{Workers: 4}); !res.Converged || !d.IsClosed() {
		t.Fatalf("parallel directed run did not close: %+v", res)
	}
	d.CheckInvariants()
}

// TestParallelObserverAndDone: subscribers and a custom Done predicate run
// on the committing goroutine between rounds, exactly as in the sequential
// engine.
func TestParallelObserverAndDone(t *testing.T) {
	g, res := observed(t, 80, 31, Config{Workers: 4, Done: func(g *graph.Undirected) bool { return g.MinDegree() >= 3 }})
	if !res.Converged || g.MinDegree() < 3 {
		t.Fatalf("custom done not reached: %+v", res)
	}
}

// TestParallelTinyGraphs: engine edge cases — n smaller than one shard,
// n == 0, workers far above the shard count, already-converged entry.
func TestParallelTinyGraphs(t *testing.T) {
	for _, c := range []struct {
		g       *graph.Undirected
		workers int
	}{{gen.Path(3), 16}, {graph.NewUndirected(0), 8}, {gen.Complete(5), 8}} {
		done := c.g.IsComplete()
		res := Run(c.g, core.Push{}, rng.New(1), Config{Workers: c.workers})
		if !res.Converged || !c.g.IsComplete() || done && (res.Rounds != 0 || res.Proposals != 0) {
			t.Fatalf("n=%d, Workers=%d, complete at entry %v: %+v", c.g.N(), c.workers, done, res)
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
// counter bumped on every call must count the same calls, and the run
// must give the same Result, at Workers 4 as at Workers 1.
func TestActMayKeepState(t *testing.T) {
	run := func(workers int) (Result, int) {
		p := &countingPush{}
		res := Run(gen.Cycle(256), p, rng.New(5), Config{Workers: workers, MaxRounds: 40})
		return res, p.calls
	}
	res1, calls1 := run(1)
	res4, calls4 := run(4)
	if res1 != res4 || calls1 != calls4 {
		t.Fatalf("Workers 4: %+v after %d calls; Workers 1: %+v after %d calls", res4, calls4, res1, calls1)
	}
	if calls1 != 256*res1.Rounds {
		t.Fatalf("%d calls over %d rounds of 256 nodes", calls1, res1.Rounds)
	}
}

// countingPush is Push with a plain per-call counter.
type countingPush struct{ calls int }

func (*countingPush) Name() string { return "counting-push" }
func (c *countingPush) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	c.calls++
	core.Push{}.Act(g, u, r, propose)
}

// TestNewEngineLayout: n below one shard (0 and 1 included) yields one
// shard over exactly [0, n); every layout partitions [0, n) and acts each
// node once, whatever the worker count; a negative n panics.
func TestNewEngineLayout(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		n, workers, wantShards int
	}{
		{"empty graph", 0, 0, 1},
		{"single node", 1, 0, 1},
		{"below one shard", 3, 0, 1},
		{"exactly one shard", 32, 0, 1},
		{"one past a shard", 33, 0, 2},
		// A session's worker count, below or above the shard count, leaves
		// the layout at ceil(n/32) shards.
		{"many shards few workers", 256, 3, 8},
		{"workers above shards", 64, 100, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := make([]int, tc.n)
			shards := newShards(tc.n, rng.New(1))
			if tc.workers > 0 {
				s := NewSession(gen.Cycle(tc.n), nodeCounter{seen}, rng.New(1), Config{Workers: tc.workers})
				defer s.Close()
				s.Step()
				shards = s.shards
			} else {
				// The round core's act over the shards, as a round runs it.
				r := &round[*graph.Undirected, graph.Edge]{p: nodeCounter{seen}, shards: shards}
				for _, sh := range shards {
					r.act(sh.lo, sh.hi, sh.r)
				}
			}
			if len(shards) != tc.wantShards {
				t.Fatalf("n=%d workers=%d: %d shards want %d", tc.n, tc.workers, len(shards), tc.wantShards)
			}
			// The shards partition [0, n) exactly: contiguous, non-overlapping,
			// clamped to n, each with its own stream.
			next := 0
			for i, sh := range shards {
				if sh.lo != next || sh.hi < sh.lo || sh.hi > max(tc.n, 0) || sh.r == nil {
					t.Fatalf("shard %d [%d,%d) breaks the partition at %d", i, sh.lo, sh.hi, next)
				}
				next = sh.hi
			}
			if next != tc.n {
				t.Fatalf("shards cover [0,%d) want [0,%d)", next, tc.n)
			}
			for u, c := range seen {
				if c != 1 {
					t.Fatalf("node %d acted %d times in one round", u, c)
				}
			}
		})
	}
	t.Run("negative n panics", func(t *testing.T) {
		mustPanic(t, func() { newShards(-1, rng.New(1)) })
	})
}

// nodeCounter counts each node's Act calls and proposes nothing.
type nodeCounter struct{ seen []int }

func (nodeCounter) Name() string { return "node-counter" }
func (c nodeCounter) Act(_ *graph.Undirected, u int, _ *rng.Rand, _ func(a, b int)) {
	c.seen[u]++
}
