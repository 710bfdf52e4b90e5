package sim

import (
	"fmt"
	"runtime"
	"sync"

	"gossipdisc/internal/rng"
)

// Trials runs numTrials independent trials on a pool of at most pool
// concurrent trials (0 = GOMAXPROCS; 1 = strictly sequential, inline in
// trial order; negative panics) and returns run's results in trial order.
//
// Trial i builds its input with build(i, r) and then runs run(g, r) on the
// same generator r, the i-th sequential split of seed's root generator.
// Every split is taken before any trial starts, so a trial is one
// deterministic function of (seed, trial index), and the results are
// identical for every pool size and GOMAXPROCS. Each trial runs on its
// pool goroutine; this pool is the only concurrency in the package.
func Trials[G, R any](pool, numTrials int, seed uint64, build func(trial int, r *rng.Rand) G,
	run func(G, *rng.Rand) R) []R {
	root := rng.New(seed)
	gens := make([]*rng.Rand, numTrials)
	for i := range gens {
		gens[i] = root.Split()
	}
	results := make([]R, numTrials)
	parallelFor(pool, numTrials, func(i int) {
		results[i] = run(build(i, gens[i]), gens[i])
	})
	return results
}

// parallelFor runs fn(i) for i in [0, n) on a bounded worker pool fed from
// a shared channel: workers == 0 selects GOMAXPROCS, 1 runs inline in
// index order, and negative worker counts panic (they are always a caller
// bug; Trials documents the contract).
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
