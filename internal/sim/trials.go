package sim

import (
	"fmt"
	"runtime"
	"sync"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file implements the parallel multi-trial runner. Trials are
// embarrassingly parallel; the only care needed is determinism: every trial
// derives its generator by splitting a root generator *sequentially* before
// any work is dispatched, so results are identical regardless of the trial
// pool size, GOMAXPROCS, or scheduling. The pool itself is bounded: the
// plain entry points saturate GOMAXPROCS, and the *On variants let callers
// cap how many trials run concurrently — down to a strictly sequential
// pool of one, which runs the trials inline in trial order.

// Trials executes numTrials independent runs of p on a GOMAXPROCS-wide
// trial pool and returns the per-trial results in trial order. It is
// TrialsOn with the default pool.
//
// build receives the trial index and a trial-private generator and must
// return a fresh initial graph. The same generator (advanced past build's
// consumption) then drives the process, so a trial is one deterministic
// function of (seed, trial index) — including cfg.Workers: the sharded
// engine is deterministic per run, so its results stay reproducible here.
// Each run steps on its trial's goroutine; the trial pool is where a batch
// gets its parallelism.
func Trials(numTrials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Undirected,
	p core.Process, cfg Config) []Result {
	return TrialsOn(0, numTrials, seed, build, p, cfg)
}

// TrialsOn is Trials on a bounded trial pool: at most trialWorkers trials
// run concurrently (0 = GOMAXPROCS; 1 = strictly sequential, inline in
// trial order; negative panics). Results are identical for every pool
// size — the per-trial generators are sequential splits taken before any
// work is dispatched.
func TrialsOn(trialWorkers, numTrials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Undirected,
	p core.Process, cfg Config) []Result {
	return trialsOn(trialWorkers, numTrials, seed, build,
		func(_ int, g *graph.Undirected, r *rng.Rand) Result { return Run(g, p, r, cfg) })
}

// DirectedTrials is the directed analogue of Trials.
func DirectedTrials(numTrials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Directed,
	p core.DirectedProcess, cfg DirectedConfig) []DirectedResult {
	return DirectedTrialsOn(0, numTrials, seed, build, p, cfg)
}

// DirectedTrialsOn is the directed analogue of TrialsOn.
func DirectedTrialsOn(trialWorkers, numTrials int, seed uint64, build func(trial int, r *rng.Rand) *graph.Directed,
	p core.DirectedProcess, cfg DirectedConfig) []DirectedResult {
	return trialsOn(trialWorkers, numTrials, seed, build,
		func(_ int, g *graph.Directed, r *rng.Rand) DirectedResult { return RunDirected(g, p, r, cfg) })
}

// trialsOn is the harness under every trial entry point: trial i builds its
// graph and then runs on the i-th sequential split of the seed's root
// generator, all splits taken before any work is dispatched.
func trialsOn[G, R any](trialWorkers, numTrials int, seed uint64, build func(trial int, r *rng.Rand) G,
	run func(trial int, g G, r *rng.Rand) R) []R {
	root := rng.New(seed)
	gens := make([]*rng.Rand, numTrials)
	for i := range gens {
		gens[i] = root.Split()
	}
	results := make([]R, numTrials)
	parallelFor(trialWorkers, numTrials, func(i int) {
		results[i] = run(i, build(i, gens[i]), gens[i])
	})
	return results
}

// parallelFor runs fn(i) for i in [0, n) on a bounded worker pool fed from
// a shared channel: workers == 0 selects GOMAXPROCS, 1 runs inline in
// index order, and negative worker counts panic (they are always a caller
// bug; the exported trial entry points document the contract).
func parallelFor(workers, n int, fn func(i int)) {
	if workers < 0 {
		panic(fmt.Sprintf("sim: trial pool of %d workers (0 = GOMAXPROCS, 1 = sequential)", workers))
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Rounds extracts the per-trial round counts.
func Rounds(results []Result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = float64(r.Rounds)
	}
	return out
}

// DirectedRounds extracts the per-trial round counts of directed runs.
func DirectedRounds(results []DirectedResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = float64(r.Rounds)
	}
	return out
}

// AllConverged reports whether every trial converged.
func AllConverged(results []Result) bool {
	for _, r := range results {
		if !r.Converged {
			return false
		}
	}
	return true
}

// AllDirectedConverged reports whether every directed trial converged.
func AllDirectedConverged(results []DirectedResult) bool {
	for _, r := range results {
		if !r.Converged {
			return false
		}
	}
	return true
}
