package sim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// runs is Trials' run for process p on engine cfg.
func runs(p core.Process, cfg Config) func(*graph.Undirected, *rng.Rand) Result {
	return func(g *graph.Undirected, r *rng.Rand) Result { return Run(g, p, r, cfg) }
}

// directedRuns is runs for a directed process.
func directedRuns(p core.DirectedProcess, cfg DirectedConfig) func(*graph.Directed, *rng.Rand) DirectedResult {
	return func(g *graph.Directed, r *rng.Rand) DirectedResult { return RunDirected(g, p, r, cfg) }
}

// samePools requires batch to return the same results at every trial pool
// size — sequential (twice), bounded and the GOMAXPROCS default — and every
// trial to satisfy ok.
func samePools[R comparable](t *testing.T, batch func(pool int) []R, ok func(R) bool) []R {
	t.Helper()
	want := batch(1)
	for _, pool := range []int{1, 2, 0} {
		got := batch(pool)
		for i := range want {
			if got[i] != want[i] || !ok(got[i]) {
				t.Fatalf("pool=%d trial %d: %+v, sequential %+v", pool, i, got[i], want[i])
			}
		}
	}
	return want
}

func converges(r Result) bool                 { return r.Converged }
func directedConverges(r DirectedResult) bool { return r.Converged }
func anyResult[R any](R) bool                 { return true }

func TestTrialsDeterministic(t *testing.T) {
	res := samePools(t, func(pool int) []Result {
		return Trials(pool, 8, 42, func(trial int, r *rng.Rand) *graph.Undirected { return gen.RandomTree(12, r) }, runs(core.Push{}, Config{}))
	}, converges)
	if len(res) != 8 {
		t.Fatalf("%d trials, want 8", len(res))
	}
}

func TestTrialsDifferentSeedsDiffer(t *testing.T) {
	build := func(trial int, r *rng.Rand) *graph.Undirected { return gen.RandomTree(16, r) }
	a := Trials(0, 6, 1, build, runs(core.Push{}, Config{}))
	b := Trials(0, 6, 2, build, runs(core.Push{}, Config{}))
	same := 0
	for i := range a {
		if a[i].Rounds == b[i].Rounds {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("all trials identical across different seeds (suspicious)")
	}
}

// TestTrialsAreIndependent: each trial gets its own graph and stream, so
// rounds vary across trials of one input.
func TestTrialsAreIndependent(t *testing.T) {
	res := Trials(0, 10, 7, func(trial int, r *rng.Rand) *graph.Undirected { return gen.Path(14) }, runs(core.Pull{}, Config{}))
	distinct := map[int]bool{}
	for _, r := range res {
		distinct[r.Rounds] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("10 trials produced only %d distinct round counts", len(distinct))
	}
}

func TestDirectedTrialsDeterministic(t *testing.T) {
	samePools(t, func(pool int) []DirectedResult {
		return Trials(pool, 6, 9, func(trial int, r *rng.Rand) *graph.Directed { return gen.RandomStronglyConnected(8, 4, r) },
			directedRuns(core.DirectedTwoHop{}, DirectedConfig{}))
	}, directedConverges)
}

// TestParallelTrialsDeterministic: a Config flows through Trials and keeps
// the whole batch a deterministic function of (seed, trial index).
func TestParallelTrialsDeterministic(t *testing.T) {
	samePools(t, func(pool int) []Result {
		return Trials(pool, 6, 11, func(trial int, r *rng.Rand) *graph.Undirected { return gen.Cycle(48 + 16*trial) },
			runs(core.Push{}, Config{DensePhase: 0.5}))
	}, converges)
}

// TestRoundsExtraction: Trials returns run's value for trial i at index i,
// whatever its type, and hands build the trial index.
func TestRoundsExtraction(t *testing.T) {
	build := func(trial int, r *rng.Rand) *graph.Undirected { return gen.Path(4 + trial) }
	rs := Trials(0, 5, 3, build, func(g *graph.Undirected, r *rng.Rand) float64 {
		return float64(g.N())
	})
	for i, n := range rs {
		if n != float64(4+i) {
			t.Fatalf("trial %d: got %v, want %d", i, n, 4+i)
		}
	}
}

// TestAllConvergedFalse: a trial that exhausts its round budget comes back
// unconverged through the harness rather than being dropped.
func TestAllConvergedFalse(t *testing.T) {
	build := func(trial int, r *rng.Rand) *graph.Undirected {
		if trial == 1 {
			return gen.Path(64)
		}
		return gen.Complete(4)
	}
	res := Trials(0, 3, 1, build, runs(core.Push{}, Config{MaxRounds: 2}))
	for i, want := range []bool{true, false, true} {
		if res[i].Converged != want {
			t.Fatalf("trial %d converged = %v, want %v", i, res[i].Converged, want)
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		for _, n := range []int{0, 1, 7, 100} {
			hit := make([]bool, n)
			parallelFor(workers, n, func(i int) { hit[i] = true })
			for i, h := range hit {
				if !h {
					t.Fatalf("workers=%d n=%d: index %d not visited", workers, n, i)
				}
			}
		}
	}
}

func TestParallelForRejectsNegativePool(t *testing.T) {
	mustPanic(t, func() { parallelFor(-2, 4, func(i int) {}) })
}

// TestTrialsOnPoolInvariance: per-trial generators are split before any
// work is dispatched, so the pool size cannot influence any trial's
// result, undirected or directed.
func TestTrialsOnPoolInvariance(t *testing.T) {
	samePools(t, func(pool int) []Result {
		return Trials(pool, 7, 21, func(trial int, r *rng.Rand) *graph.Undirected { return gen.RandomTree(40, r) }, runs(core.Push{}, Config{}))
	}, anyResult)
	samePools(t, func(pool int) []DirectedResult {
		return Trials(pool, 5, 9, func(trial int, r *rng.Rand) *graph.Directed { return gen.RandomStronglyConnected(24, 8, r) },
			directedRuns(core.DirectedTwoHop{}, DirectedConfig{}))
	}, anyResult)
}

// TestTrialsOnRejectsNegativePool: a negative pool bound is always a caller
// bug, caught at the entry point.
func TestTrialsOnRejectsNegativePool(t *testing.T) {
	mustPanic(t, func() {
		Trials(-1, 2, 1, func(trial int, r *rng.Rand) *graph.Undirected { return gen.Cycle(6) }, runs(core.Push{}, Config{}))
	})
}

func TestTrialsSingleTrial(t *testing.T) {
	res := Trials(0, 1, 5, func(trial int, r *rng.Rand) *graph.Undirected { return gen.Cycle(6) }, runs(core.Push{}, Config{}))
	if len(res) != 1 || !res[0].Converged {
		t.Fatalf("single trial: %+v", res)
	}
}
