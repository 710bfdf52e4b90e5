package sim

import (
	"runtime"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// runShardedPush executes one sharded push run on a fixed workload and
// returns the result and final graph.
func runShardedPush(workers int) (Result, *graph.Undirected) {
	g := gen.RandomTree(200, rng.New(77))
	res := Run(g, core.Push{}, rng.New(42), Config{Workers: workers})
	return res, g
}

// TestDeterminismAcrossWorkersUndirected: same seed ⇒ byte-identical Result
// and final graph for every Workers >= 1 (the sharded engine's contract).
func TestDeterminismAcrossWorkersUndirected(t *testing.T) {
	baseRes, baseG := runShardedPush(1)
	if !baseRes.Converged || !baseG.IsComplete() {
		t.Fatalf("sharded run did not converge: %+v", baseRes)
	}
	for _, w := range []int{2, 8} {
		res, g := runShardedPush(w)
		if res != baseRes {
			t.Fatalf("Workers=%d result %+v != Workers=1 result %+v", w, res, baseRes)
		}
		if !g.Equal(baseG) {
			t.Fatalf("Workers=%d final graph differs from Workers=1", w)
		}
	}
}

// TestDeterminismAcrossWorkersPull repeats the contract for the pull
// process, whose rng consumption per node differs from push.
func TestDeterminismAcrossWorkersPull(t *testing.T) {
	run := func(workers int) (Result, *graph.Undirected) {
		g := gen.Cycle(150)
		res := Run(g, core.Pull{}, rng.New(5), Config{Workers: workers})
		return res, g
	}
	baseRes, baseG := run(1)
	if !baseRes.Converged {
		t.Fatalf("pull run did not converge: %+v", baseRes)
	}
	for _, w := range []int{2, 8} {
		res, g := run(w)
		if res != baseRes || !g.Equal(baseG) {
			t.Fatalf("Workers=%d diverged: %+v vs %+v", w, res, baseRes)
		}
	}
}

// TestDeterminismAcrossWorkersDirected: the directed engine obeys the same
// contract, including the closure-tracking termination counters.
func TestDeterminismAcrossWorkersDirected(t *testing.T) {
	run := func(workers int) (DirectedResult, *graph.Directed) {
		g := gen.RandomStronglyConnected(96, 32, rng.New(9))
		res := RunDirected(g, core.DirectedTwoHop{}, rng.New(43), DirectedConfig{Workers: workers})
		return res, g
	}
	baseRes, baseG := run(1)
	if !baseRes.Converged {
		t.Fatalf("directed run did not converge: %+v", baseRes)
	}
	for _, w := range []int{2, 8} {
		res, g := run(w)
		if res != baseRes {
			t.Fatalf("Workers=%d result %+v != Workers=1 result %+v", w, res, baseRes)
		}
		if !g.Equal(baseG) {
			t.Fatalf("Workers=%d final digraph differs from Workers=1", w)
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS: worker scheduling must not influence
// results — the same run is bit-identical under different GOMAXPROCS.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	baseRes, baseG := runShardedPush(4)
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		res, g := runShardedPush(4)
		if res != baseRes || !g.Equal(baseG) {
			t.Fatalf("GOMAXPROCS=%d diverged: %+v vs %+v", procs, res, baseRes)
		}
	}
}

// TestDeterminismEagerIgnoresWorkers: CommitEager is inherently sequential,
// so Workers must not change its (seed → Result) function.
func TestDeterminismEagerIgnoresWorkers(t *testing.T) {
	run := func(workers int) (Result, *graph.Undirected) {
		g := gen.Cycle(64)
		res := Run(g, core.Push{}, rng.New(3), Config{Mode: CommitEager, Workers: workers})
		return res, g
	}
	baseRes, baseG := run(0)
	for _, w := range []int{1, 8} {
		res, g := run(w)
		if res != baseRes || !g.Equal(baseG) {
			t.Fatalf("eager Workers=%d diverged: %+v vs %+v", w, res, baseRes)
		}
	}
}

// TestDeterminismSequentialPathUnchanged pins the Workers == 0 engine to
// the pre-sharding behavior: the classic path must keep its exact rng
// consumption (single stream, node order), so a fixed seed keeps producing
// the same run statistics release over release. The golden values below
// were produced by the seed release (commit 20f4a0a) and re-verified
// against this engine; if this test fails, the sequential path's
// bit-compatibility contract has been broken.
func TestDeterminismSequentialPathUnchanged(t *testing.T) {
	g := gen.Cycle(32)
	res := Run(g, core.Push{}, rng.New(1), Config{})
	want := Result{Rounds: 151, Converged: true, Proposals: 4526, NewEdges: 464, DuplicateProposals: 4062}
	if res != want {
		t.Fatalf("sequential path diverged from seed release: got %+v want %+v", res, want)
	}
	if !g.IsComplete() {
		t.Fatal("sequential run did not complete the graph")
	}
}

// slotProbe records, per node, the edge count observed at Act time. Each
// node writes its own slot, so it is safe under the parallel engine.
type slotProbe struct {
	observedM []int
}

func (s *slotProbe) Name() string { return "slot-probe" }
func (s *slotProbe) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	s.observedM[u] = g.M()
	propose(u, (u+1)%g.N())
}

// TestParallelSynchronousSemantics: under the sharded engine no node may
// observe another proposal of the same round — the G_t → G_{t+1} contract.
func TestParallelSynchronousSemantics(t *testing.T) {
	const n = 97 // not a multiple of the shard size: exercises the tail shard
	g := gen.Star(n)
	p := &slotProbe{observedM: make([]int, n)}
	Run(g, p, rng.New(7), Config{MaxRounds: 1, Workers: 4})
	for u, m := range p.observedM {
		if m != n-1 {
			t.Fatalf("node %d observed mid-round edge count %d (want %d)", u, m, n-1)
		}
	}
	for u := 0; u < n; u++ {
		if !g.HasEdge(u, (u+1)%n) {
			t.Fatalf("edge %d-%d missing after parallel commit", u, (u+1)%n)
		}
	}
}

// TestParallelDuplicateAccounting: duplicates across shards are counted
// exactly as the sequential engine counts them.
func TestParallelDuplicateAccounting(t *testing.T) {
	g := gen.Star(100)
	res := Run(g, fixedProbe{}, rng.New(9), Config{MaxRounds: 1, Workers: 4})
	if res.NewEdges != 1 || res.DuplicateProposals != 99 || res.Proposals != 100 {
		t.Fatalf("parallel duplicate accounting: %+v", res)
	}
}

// TestParallelEngineInvariants: a full parallel run preserves the graph
// invariants and reaches the same terminal object (the complete graph).
func TestParallelEngineInvariants(t *testing.T) {
	g := gen.RandomTree(130, rng.New(21))
	res := Run(g, core.PushPull{}, rng.New(22), Config{Workers: 4})
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("parallel push-pull did not complete: %+v", res)
	}
	g.CheckInvariants()

	d := gen.DirectedCycle(40)
	dres := RunDirected(d, core.DirectedTwoHop{}, rng.New(23), DirectedConfig{Workers: 4})
	if !dres.Converged || !d.IsClosed() {
		t.Fatalf("parallel directed run did not close: %+v", dres)
	}
	d.CheckInvariants()
}

// TestParallelObserverAndDone: subscribers and a custom Done predicate run
// on the committing goroutine between rounds, exactly as in the sequential
// engine.
func TestParallelObserverAndDone(t *testing.T) {
	g := gen.Path(80)
	var rounds []int
	res := runWith(g, core.Push{}, rng.New(31), Config{
		Workers: 4,
		Done:    func(g *graph.Undirected) bool { return g.MinDegree() >= 3 },
	}, stream.SubscriberFunc(func(e *stream.Event) {
		rounds = append(rounds, e.Delta.Round)
	}))
	if !res.Converged || g.MinDegree() < 3 {
		t.Fatalf("custom done not reached: %+v", res)
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("observer called %d times for %d rounds", len(rounds), res.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("observer rounds %v", rounds)
		}
	}
}

// TestParallelTinyGraphs: engine edge cases — n smaller than one shard,
// n == 0, workers far above the shard count, already-converged entry.
func TestParallelTinyGraphs(t *testing.T) {
	g := gen.Path(3)
	res := Run(g, core.Push{}, rng.New(1), Config{Workers: 16})
	if !res.Converged || !g.IsComplete() {
		t.Fatalf("tiny parallel run: %+v", res)
	}
	empty := graph.NewUndirected(0)
	res = Run(empty, core.Push{}, rng.New(1), Config{Workers: 8})
	if !res.Converged || res.Rounds != 0 {
		t.Fatalf("empty parallel run: %+v", res)
	}
	done := gen.Complete(5)
	res = Run(done, core.Push{}, rng.New(1), Config{Workers: 8})
	if !res.Converged || res.Rounds != 0 || res.Proposals != 0 {
		t.Fatalf("already-complete parallel run: %+v", res)
	}
}

// TestParallelTrialsDeterministic: Workers flows through Trials and keeps
// the whole batch a deterministic function of (seed, trial index).
func TestParallelTrialsDeterministic(t *testing.T) {
	batch := func() []Result {
		return Trials(0, 6, 11, func(trial int, r *rng.Rand) *graph.Undirected {
			return gen.Cycle(48 + 16*trial)
		}, runs(core.Push{}, Config{Workers: 2}))
	}
	a, b := batch(), batch()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
		if !a[i].Converged {
			t.Fatalf("trial %d did not converge", i)
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

// TestEngineSteadyStateAllocs: once buffers are warm, a synchronous round
// allocates nothing — compared by measuring runs that differ only in round
// count. Skipped under -race, which instruments allocations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, workers := range []int{0, 1, 4} {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				g := gen.Star(64)
				Run(g, fixedProbe{}, rng.New(1), Config{Workers: workers, MaxRounds: rounds})
			})
		}
		short, long := allocs(50), allocs(1050)
		// A real per-round leak shows ~1000 extra allocations.
		if extra := long - short; extra > 8 {
			t.Errorf("Workers=%d: %v allocations across 1000 steady-state rounds (short=%v long=%v)",
				workers, extra, short, long)
		}
	}
}

// TestEngineSteadyStateAllocsDirected repeats the zero-alloc check for the
// directed engine.
func TestEngineSteadyStateAllocsDirected(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, workers := range []int{0, 4} {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				g := gen.DirectedCycle(64)
				RunDirected(g, fixedArcProbe{}, rng.New(1),
					DirectedConfig{Workers: workers, MaxRounds: rounds})
			})
		}
		short, long := allocs(50), allocs(1050)
		if extra := long - short; extra > 8 {
			t.Errorf("Workers=%d: %v allocations across 1000 steady-state directed rounds (short=%v long=%v)",
				workers, extra, short, long)
		}
	}
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

// TestNewEngineLayout is the table for degenerate layout inputs: n smaller
// than one shard (including 0 and 1) must yield a single shard covering
// exactly [0, n), every layout must partition [0, n) and act each node
// exactly once, the worker count must not shape it, and a negative n must
// panic instead of building a nonsensical layout.
func TestNewEngineLayout(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		wantShards int
	}{
		{"empty graph", 0, 1},
		{"single node", 1, 1},
		{"below one shard", 3, 1},
		{"exactly one shard", 32, 1},
		{"one past a shard", 33, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shards := newShards(tc.n, rng.New(1))
			if len(shards) != tc.wantShards {
				t.Fatalf("n=%d: %d shards want %d", tc.n, len(shards), tc.wantShards)
			}
			// The shards partition [0, n) exactly: contiguous, non-overlapping,
			// clamped to n, never negative-width.
			next := 0
			for i := range shards {
				sh := &shards[i]
				if sh.lo != next || sh.hi < sh.lo || sh.hi > tc.n && tc.n > 0 {
					t.Fatalf("shard %d range [%d,%d) breaks the partition at %d", i, sh.lo, sh.hi, next)
				}
				if sh.r == nil {
					t.Fatalf("shard %d has no stream", i)
				}
				next = sh.hi
			}
			if tc.n > 0 && next != tc.n {
				t.Fatalf("shards cover [0,%d) want [0,%d)", next, tc.n)
			}
			if tc.n == 0 && (shards[0].lo != 0 || shards[0].hi != 0) {
				t.Fatalf("empty graph shard is [%d,%d) want [0,0)", shards[0].lo, shards[0].hi)
			}
			// The layout acts cleanly: the round core's act over the shards
			// touches every node exactly once even on degenerate layouts.
			seen := make([]int, tc.n)
			r := &round[*graph.Undirected, graph.Edge]{p: nodeCounter{seen}, shards: shards}
			for _, sh := range shards {
				r.act(sh.lo, sh.hi, sh.r)
			}
			for u, c := range seen {
				if c != 1 {
					t.Fatalf("node %d acted %d times", u, c)
				}
			}
		})
	}
	// A session's worker count, below or above the shard count, leaves the
	// layout at ceil(n/32) shards, and a round acts every node once.
	for _, tc := range []struct {
		name                   string
		n, workers, wantShards int
	}{
		{"many shards few workers", 256, 3, 8},
		{"workers above shards", 64, 100, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := make([]int, tc.n)
			s := NewSession(gen.Cycle(tc.n), nodeCounter{seen}, rng.New(1), Config{Workers: tc.workers})
			defer s.Close()
			s.Step()
			if len(s.shards) != tc.wantShards {
				t.Fatalf("n=%d workers=%d: %d shards want %d", tc.n, tc.workers, len(s.shards), tc.wantShards)
			}
			for u, c := range seen {
				if c != 1 {
					t.Fatalf("node %d acted %d times in one round", u, c)
				}
			}
		})
	}
	t.Run("negative n panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("newShards(-1, ...) did not panic")
			}
		}()
		newShards(-1, rng.New(1))
	})
}

// nodeCounter counts each node's Act calls and proposes nothing.
type nodeCounter struct{ seen []int }

func (nodeCounter) Name() string { return "node-counter" }
func (c nodeCounter) Act(_ *graph.Undirected, u int, _ *rng.Rand, _ func(a, b int)) {
	c.seen[u]++
}
