package sim

import (
	"fmt"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
)

// This file pins the cross-backend contract end to end: a run gives the
// same Result and delta stream on the dense, sparse and auto backends. The
// adjacency lists, which drive every draw, are backend-independent, so a
// divergence means a row backend changed an observable it must not.

// backends is the backend axis of one Session configuration on an n-cycle.
func backends(n, workers int, dense float64, bs ...graph.Backend) []simtest.Row {
	return simtest.Axis(bs, func(b graph.Backend) simtest.Row {
		return session(b.String(), cycle(n, b), core.Push{}, uint64(1000+n), Config{Workers: workers, DensePhase: dense})
	})
}

// TestBackendRunGoldens: dense is the golden reference; sparse and auto must
// reproduce its Result and delta stream exactly at every size and
// dense-phase setting. Workers is ignored, so its w=1 and w=4 rows run the
// same round as w=0; they stay until the field goes (ROADMAP item 1).
// n=1024 is skipped under the race detector (the full matrix would
// dominate CI) — the race job still covers 64 and 256.
func TestBackendRunGoldens(t *testing.T) {
	sizes := []int{64, 256}
	if !simtest.Race && !testing.Short() {
		sizes = append(sizes, 1024)
	}
	for _, n := range sizes {
		for _, workers := range []int{0, 1, 4} {
			for _, dense := range []float64{0, 0.3} {
				t.Run(fmt.Sprintf("n=%d/w=%d/dense=%v", n, workers, dense), func(t *testing.T) {
					converged(t, simtest.Identical(t, backends(n, workers, dense,
						graph.BackendDense, graph.BackendSparse, graph.BackendAuto)...))
				})
			}
		}
	}
}

// TestBackendDensePhaseShardedShortRows arms the dense phase from round 1
// on a 6144-cycle, so the round samples the complement views of rows on
// every rung of the sparse ladder as it is climbed: lists, sorted copies
// from 128 entries, bitsets from 6144/32 = 192 (at n <= 1024 a row is a
// bitset before the dense phase starts). Result and delta stream must
// match the dense backend.
func TestBackendDensePhaseShardedShortRows(t *testing.T) {
	const n = 6144
	graphs := map[graph.Backend]*graph.Undirected{}
	simtest.Identical(t, simtest.Axis([]graph.Backend{graph.BackendDense, graph.BackendSparse}, func(b graph.Backend) simtest.Row {
		return session(b.String(), func() *graph.Undirected {
			graphs[b] = gen.Cycle(n, b)
			return graphs[b]
		}, core.Push{}, 77, Config{DensePhase: 1, MaxRounds: 100})
	})...)
	gs := graphs[graph.BackendSparse]
	gs.CheckInvariants()
	if !gs.Equal(graphs[graph.BackendDense]) {
		t.Fatal("final graphs differ")
	}
	// Rows start at 2 entries and gain ~2 per dense round: by the end every
	// row must have left the list form and some must be bitsets.
	if lo, hi := gs.MinDegree(), gs.MaxDegree(); lo < 128 || hi < 192 {
		t.Fatalf("final degrees [%d, %d]: rows did not climb past 128 and 192", lo, hi)
	}
}

// hubs is a 10 000-cycle with two hubs: node 0 joined to nodes 2..199
// (degree 200, a sorted row on the sparse backend: 128 ≤ d < 10 000/32 =
// 312) and node 5000 to nodes 5002..5399 (degree 400, a bitset row).
func hubs(b graph.Backend) func() *graph.Undirected {
	return func() *graph.Undirected {
		g := gen.Cycle(10_000, b)
		for v := 2; v < 200; v++ {
			g.AddEdge(0, v)
		}
		for v := 5002; v < 5400; v++ {
			g.AddEdge(5000, v)
		}
		return g
	}
}

// TestHubRowGolden pins a few bounded push rounds on the hub graph — with
// the dense phase off and from round 1 — to one Result and delta
// fingerprint that both backends must reproduce: Push's draws on a hub's
// neighbor list, and the dense phase's complement views of the sorted and
// bitset rungs, on the dense and the sparse backend. The w=1 rows set the
// ignored Workers field and must reproduce the same goldens.
func TestHubRowGolden(t *testing.T) {
	goldens := []struct {
		dense float64
		want  Result
		hash  uint64
	}{
		{0, Result{Rounds: 4, Proposals: 26117, NewEdges: 13860, DuplicateProposals: 12257}, 0x65d40cfef233866e},
		{1, Result{Rounds: 4, Proposals: 40000, NewEdges: 39999, DuplicateProposals: 1}, 0xeca94ff19670431d},
	}
	for _, workers := range []int{0, 1} {
		for _, gd := range goldens {
			for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
				t.Run(fmt.Sprintf("w=%d/dense=%v/%v", workers, gd.dense, b), func(t *testing.T) {
					row := session(b.String(), hubs(b), core.Push{}, 10, Config{Workers: workers, DensePhase: gd.dense, MaxRounds: 4})
					if got, want := simtest.Run(t, row), (simtest.Outcome{Result: gd.want, Hash: gd.hash}); got != want {
						t.Fatalf("golden moved:\n got  %+v %#x\n want %+v %#x", got.Result, got.Hash, want.Result, want.Hash)
					}
				})
			}
		}
	}
}

// TestBackendDirectedRunGoldens is the directed-closure analogue: the
// two-hop process must terminate with identical statistics and delta
// streams on every backend. Its w=2 rows set the ignored Workers field.
func TestBackendDirectedRunGoldens(t *testing.T) {
	for _, n := range []int{48, 96} {
		for _, workers := range []int{0, 2} {
			for _, dense := range []float64{0, 0.5} {
				t.Run(fmt.Sprintf("n=%d/w=%d/dense=%v", n, workers, dense), func(t *testing.T) {
					converged(t, simtest.Identical(t, simtest.Axis([]graph.Backend{graph.BackendDense, graph.BackendSparse}, func(b graph.Backend) simtest.Row {
						build := func() *graph.Directed { return gen.RandomStronglyConnected(n, n/2, rng.New(uint64(7000+n)), b) }
						return directed(b.String(), build, core.DirectedTwoHop{}, uint64(2000+n), DirectedConfig{Workers: workers, DensePhase: dense})
					})...))
				})
			}
		}
	}
}

// TestDirectedComponentsGolden pins directed runs on inputs with many
// strongly connected components — sinks, sources and DAG layers — where
// every node's closure row differs from its neighbors'. The strongly
// connected goldens above all have one component, so only this test fences
// the closure target's per-component bookkeeping (the counters, the dense
// phase's sampling order, TargetArcs). Both backends, and the w=1 rows
// that set the ignored Workers field, must reproduce the same pinned
// DirectedResult and delta-stream hash.
func TestDirectedComponentsGolden(t *testing.T) {
	inputs := map[string]func(graph.Backend) *graph.Directed{
		"thm14":   func(b graph.Backend) *graph.Directed { return gen.Thm14WeakLowerBound(64, b) },
		"weak":    func(b graph.Backend) *graph.Directed { return gen.RandomWeaklyConnected(64, 32, rng.New(29), b) },
		"layered": func(b graph.Backend) *graph.Directed { return gen.LayeredDAG(4, 16, b) },
	}
	goldens := []struct {
		input string
		dense float64
		want  DirectedResult
		hash  uint64
	}{
		{"thm14", 0, DirectedResult{Rounds: 829, Converged: true, Proposals: 787, NewArcs: 16, DuplicateProposals: 771, TargetArcs: 560}, 0xa31ebef36db49f95},
		{"thm14", 0.5, DirectedResult{Rounds: 4, Converged: true, Proposals: 27, NewArcs: 16, DuplicateProposals: 11, TargetArcs: 560}, 0xf4492b37e006f526},
		{"weak", 0, DirectedResult{Rounds: 3334, Converged: true, Proposals: 99176, NewArcs: 1169, DuplicateProposals: 98007, TargetArcs: 1264}, 0x1661fab00c45dd2a},
		{"weak", 0.5, DirectedResult{Rounds: 69, Converged: true, Proposals: 2298, NewArcs: 1169, DuplicateProposals: 1129, TargetArcs: 1264}, 0x58b3ca272fd2c2bd},
		{"layered", 0, DirectedResult{Rounds: 393, Converged: true, Proposals: 7477, NewArcs: 768, DuplicateProposals: 6709, TargetArcs: 1536}, 0x4440e63b5f4ec2af},
		{"layered", 0.5, DirectedResult{Rounds: 18, Converged: true, Proposals: 902, NewArcs: 768, DuplicateProposals: 134, TargetArcs: 1536}, 0x445da61d3d7084d6},
	}
	for _, gd := range goldens {
		for _, workers := range []int{0, 1} {
			for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
				t.Run(fmt.Sprintf("%s/w=%d/dense=%v/%v", gd.input, workers, gd.dense, b), func(t *testing.T) {
					var g *graph.Directed
					row := directed(gd.input, func() *graph.Directed { g = inputs[gd.input](b); return g },
						core.DirectedTwoHop{}, 3, DirectedConfig{Workers: workers, DensePhase: gd.dense})
					if got, want := simtest.Run(t, row), (simtest.Outcome{Result: gd.want, Hash: gd.hash}); got != want {
						t.Fatalf("golden moved:\n got  %+v %#x\n want %+v %#x", got.Result, got.Hash, want.Result, want.Hash)
					}
					if !g.IsClosed() {
						t.Fatal("converged run is not at closure")
					}
				})
			}
		}
	}
}

// TestDeltaHashSensitivity guards the harness itself: the fingerprint must
// change when the run changes, or the goldens above prove nothing.
func TestDeltaHashSensitivity(t *testing.T) {
	if simtest.Run(t, backends(64, 0, 0, graph.BackendDense)[0]).Hash == simtest.Run(t, backends(64, 0, 0.3, graph.BackendDense)[0]).Hash {
		t.Fatal("delta fingerprint is insensitive to the dense phase")
	}
}
