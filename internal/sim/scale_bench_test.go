package sim

import (
	"runtime"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// The ScaleSparse benchmarks run n = 100k–1M on the sparse backend, where
// the dense substrate's n² bits (125 GB at 1M) are out of the question,
// for a fixed number of early rounds: Θ(m) memory while the graph is far
// from complete. heapMB reports the live heap after the run, so per-edge
// cost regressions show up, not just wall time.

// benchScale runs `rounds` sync push rounds on an n-cycle over backend.
// heapMB is the live heap with the final run's graph still
// reachable.
func benchScale(b *testing.B, backend graph.Backend, n, rounds int) {
	var g *graph.Undirected
	for i := 0; i < b.N; i++ {
		g = gen.Cycle(n, backend)
		res := Run(g, core.Push{}, rng.New(uint64(i)+1), Config{MaxRounds: rounds})
		if res.Rounds != rounds || res.NewEdges == 0 {
			b.Fatalf("run stopped after %d rounds with %d new edges", res.Rounds, res.NewEdges)
		}
		b.ReportMetric(float64(res.NewEdges)/float64(rounds), "edges/round")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heapMB")
	runtime.KeepAlive(g)
}

func BenchmarkScaleSparse100k(b *testing.B) { benchScale(b, graph.BackendSparse, 100_000, 16) }
func BenchmarkScaleSparse1M(b *testing.B)   { benchScale(b, graph.BackendSparse, 1_000_000, 10) }

// BenchmarkScaleDense2k / BenchmarkScaleSparse2k are the head-to-head pair
// at a size where both substrates fit comfortably, for the dense-vs-sparse
// cost table (BENCH_pr7.json): same workload, same rounds, backend is the
// only variable.
func BenchmarkScaleDense2k(b *testing.B)  { benchScale(b, graph.BackendDense, 2048, 16) }
func BenchmarkScaleSparse2k(b *testing.B) { benchScale(b, graph.BackendSparse, 2048, 16) }

// The 100k head-to-head needs ~1.3 GB for the dense substrate alone (10¹⁰
// row bits); it exists to quantify the crossover, not to run in CI smokes.
func BenchmarkScaleDense100k(b *testing.B) { benchScale(b, graph.BackendDense, 100_000, 16) }

// TestScaleSparseSmoke is the cheap always-on guard that the 1M-node path
// is actually exercised by `go test` (benchmarks only run when asked): a
// sparse graph at n = 1M accepts edges, answers complement queries, and a
// couple of discovery rounds complete. Skipped in -short mode.
func TestScaleSparseSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-node smoke skipped in short mode")
	}
	const n = 1_000_000
	g := gen.Cycle(n, graph.BackendSparse)
	if g.Backend() != graph.BackendSparse || g.M() != n {
		t.Fatalf("cycle: backend %v, m %d", g.Backend(), g.M())
	}
	if md := g.MissingDegree(0); md != n-3 {
		t.Fatalf("MissingDegree(0) = %d, want %d", md, n-3)
	}
	res := Run(g, core.Push{}, rng.New(1), Config{MaxRounds: 3})
	if res.Rounds != 3 || res.NewEdges == 0 {
		t.Fatalf("smoke run: %+v", res)
	}
	g.CheckInvariants()
}
