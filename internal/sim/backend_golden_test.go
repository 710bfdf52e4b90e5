package sim

import (
	"fmt"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// This file pins the cross-backend determinism contract end to end: a full
// discovery run must produce a byte-identical Result AND a byte-identical
// round-delta stream on the dense, sparse, and auto backends, for every
// engine (Workers 0, 1, 4) and with the dense phase on or off. The adjacency
// lists — which drive all random draws — are backend-independent, so any
// divergence here means a row backend changed an observable it must not.

// deltaHash folds a RoundDelta's data fields into a running fnv-1a hash.
// The func field (MissingDegree) cannot be hashed; every other field
// participates.
type deltaHash struct{ h uint64 }

func newDeltaHash() *deltaHash { return &deltaHash{h: 14695981039346656037} }

func (d *deltaHash) ints(vs ...int) {
	for _, v := range vs {
		d.h ^= uint64(v)
		d.h *= 1099511628211
	}
}

func (d *deltaHash) observe(g *graph.Undirected, rd *RoundDelta) {
	d.ints(rd.Round, len(rd.NewEdges), rd.EdgesRemaining, rd.Members, rd.MemberEdges)
	for _, e := range rd.NewEdges {
		d.ints(e.U, e.V)
	}
	for i, u := range rd.Touched {
		d.ints(int(u), int(rd.DegreeInc[u]), i)
	}
	for _, u := range rd.Joined {
		d.ints(int(u))
	}
	for _, u := range rd.Left {
		d.ints(int(u))
	}
	// Spot-check the O(1) complement view against the live graph.
	if len(rd.Touched) > 0 {
		u := int(rd.Touched[0])
		if rd.MissingDegree(u) != g.MissingDegree(u) {
			panic("delta MissingDegree disagrees with graph")
		}
	}
}

// OnEvent folds the round deltas of either session family into the hash,
// so one deltaHash subscribes to any run.
func (d *deltaHash) OnEvent(e *stream.Event) {
	switch e.Kind {
	case stream.KindRound:
		d.observe(e.Graph, e.Delta)
	case stream.KindDirectedRound:
		d.observeDirected(e.Digraph, e.DirectedDelta)
	}
}

func (d *deltaHash) observeDirected(g *graph.Directed, rd *DirectedRoundDelta) {
	d.ints(rd.Round, len(rd.NewArcs), rd.ClosureArcsRemaining)
	for _, a := range rd.NewArcs {
		d.ints(a.U, a.V)
	}
	for i, u := range rd.OutTouched {
		d.ints(int(u), int(rd.OutDegreeInc[u]), i)
	}
	for i, u := range rd.InTouched {
		d.ints(int(u), int(rd.InDegreeInc[u]), i)
	}
}

// runFingerprint executes one full undirected discovery run and returns the
// Result plus the delta-stream hash.
func runFingerprint(b graph.Backend, n, workers int, densePhase float64) (Result, uint64) {
	g := gen.Cycle(n, b)
	dh := newDeltaHash()
	res := runWith(g, core.Push{}, rng.New(uint64(1000+n)), Config{
		Workers:    workers,
		DensePhase: densePhase,
	}, dh)
	if !g.IsComplete() {
		panic("run did not complete the graph")
	}
	return res, dh.h
}

// TestBackendRunGoldens: dense is the golden reference; sparse and auto must
// reproduce its Result and delta stream exactly at every size, worker count,
// and dense-phase setting. n=1024 is skipped under the race detector (the
// full matrix would dominate CI) — the race job still covers 64 and 256.
func TestBackendRunGoldens(t *testing.T) {
	sizes := []int{64, 256}
	if !raceEnabled && !testing.Short() {
		sizes = append(sizes, 1024)
	}
	for _, n := range sizes {
		for _, workers := range []int{0, 1, 4} {
			for _, dense := range []float64{0, 0.3} {
				n, workers, dense := n, workers, dense
				name := fmt.Sprintf("n=%d/w=%d/dense=%v", n, workers, dense)
				t.Run(name, func(t *testing.T) {
					wantRes, wantHash := runFingerprint(graph.BackendDense, n, workers, dense)
					for _, b := range []graph.Backend{graph.BackendSparse, graph.BackendAuto} {
						res, h := runFingerprint(b, n, workers, dense)
						if res != wantRes {
							t.Fatalf("%v Result diverged:\n dense: %+v\n %v: %+v", b, wantRes, b, res)
						}
						if h != wantHash {
							t.Fatalf("%v delta stream diverged from dense (hash %x vs %x)", b, h, wantHash)
						}
					}
				})
			}
		}
	}
}

// TestBackendDensePhaseShardedShortRows arms the dense phase from round 1
// on a 6144-cycle, so four workers sample the complement views (rank,
// selectClear) of rows on every rung of the sparse ladder while it is being
// climbed: neighbor-list rows sorted on demand into per-call stack buffers,
// then sorted copies from 128 entries, then bitsets from 6144/32 = 192. The
// goldens above never get here — at n <= 1024 a row is a bitset long before
// the dense phase starts. Result and delta stream must match the dense
// backend, and CI's race job must see no shared scratch.
func TestBackendDensePhaseShardedShortRows(t *testing.T) {
	const n = 6144
	run := func(b graph.Backend) (Result, uint64, *graph.Undirected) {
		g := gen.Cycle(n, b)
		dh := newDeltaHash()
		res := runWith(g, core.Push{}, rng.New(77), Config{
			Workers:    4,
			DensePhase: 1,
			MaxRounds:  100,
		}, dh)
		return res, dh.h, g
	}
	wantRes, wantHash, gd := run(graph.BackendDense)
	res, h, gs := run(graph.BackendSparse)
	if res != wantRes || h != wantHash {
		t.Fatalf("sparse diverged from dense:\n dense:  %+v %x\n sparse: %+v %x", wantRes, wantHash, res, h)
	}
	gs.CheckInvariants()
	if !gs.Equal(gd) {
		t.Fatal("final graphs differ")
	}
	// Rows start at 2 entries and gain ~2 per dense round: by the end every
	// row must have left the list form and some must be bitsets.
	if lo, hi := gs.MinDegree(), gs.MaxDegree(); lo < 128 || hi < 192 {
		t.Fatalf("final degrees [%d, %d]: rows did not climb past 128 and 192", lo, hi)
	}
}

// runDirectedFingerprint is the directed analogue of runFingerprint, for
// the given process.
func runDirectedFingerprint(p core.DirectedProcess, b graph.Backend, n, workers int, densePhase float64) (DirectedResult, uint64) {
	g := gen.RandomStronglyConnected(n, n/2, rng.New(uint64(7000+n)), b)
	dh := newDeltaHash()
	res := runDirectedWith(g, p, rng.New(uint64(2000+n)), DirectedConfig{
		Workers:    workers,
		DensePhase: densePhase,
	}, dh)
	return res, dh.h
}

// TestBackendDirectedRunGoldens is the directed-closure analogue: the
// two-hop process must terminate with identical statistics and delta
// streams on every backend.
func TestBackendDirectedRunGoldens(t *testing.T) {
	for _, n := range []int{48, 96} {
		for _, workers := range []int{0, 2} {
			for _, dense := range []float64{0, 0.5} {
				n, workers, dense := n, workers, dense
				name := fmt.Sprintf("n=%d/w=%d/dense=%v", n, workers, dense)
				t.Run(name, func(t *testing.T) {
					wantRes, wantHash := runDirectedFingerprint(core.DirectedTwoHop{}, graph.BackendDense, n, workers, dense)
					if !wantRes.Converged {
						t.Fatal("golden directed run did not converge")
					}
					res, h := runDirectedFingerprint(core.DirectedTwoHop{}, graph.BackendSparse, n, workers, dense)
					if res != wantRes {
						t.Fatalf("sparse DirectedResult diverged:\n dense:  %+v\n sparse: %+v", wantRes, res)
					}
					if h != wantHash {
						t.Fatalf("sparse delta stream diverged from dense (hash %x vs %x)", h, wantHash)
					}
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
// phase's sampling order, TargetArcs). Both backends must reproduce the
// same pinned DirectedResult and delta-stream hash.
func TestDirectedComponentsGolden(t *testing.T) {
	inputs := map[string]func(graph.Backend) *graph.Directed{
		"thm14":   func(b graph.Backend) *graph.Directed { return gen.Thm14WeakLowerBound(64, b) },
		"weak":    func(b graph.Backend) *graph.Directed { return gen.RandomWeaklyConnected(64, 32, rng.New(29), b) },
		"layered": func(b graph.Backend) *graph.Directed { return gen.LayeredDAG(4, 16, b) },
	}
	goldens := []struct {
		input   string
		workers int
		dense   float64
		want    DirectedResult
		hash    uint64
	}{
		{"thm14", 0, 0, DirectedResult{Rounds: 829, Converged: true, Proposals: 787, NewArcs: 16, DuplicateProposals: 771, TargetArcs: 560}, 0xa31ebef36db49f95},
		{"thm14", 0, 0.5, DirectedResult{Rounds: 4, Converged: true, Proposals: 27, NewArcs: 16, DuplicateProposals: 11, TargetArcs: 560}, 0xf4492b37e006f526},
		{"thm14", 1, 0, DirectedResult{Rounds: 1658, Converged: true, Proposals: 1517, NewArcs: 16, DuplicateProposals: 1501, TargetArcs: 560}, 0x8a3eb5d5979ce113},
		{"thm14", 1, 0.5, DirectedResult{Rounds: 3, Converged: true, Proposals: 23, NewArcs: 16, DuplicateProposals: 7, TargetArcs: 560}, 0x908d0f426c5c116a},
		{"weak", 0, 0, DirectedResult{Rounds: 3334, Converged: true, Proposals: 99176, NewArcs: 1169, DuplicateProposals: 98007, TargetArcs: 1264}, 0x1661fab00c45dd2a},
		{"weak", 0, 0.5, DirectedResult{Rounds: 69, Converged: true, Proposals: 2298, NewArcs: 1169, DuplicateProposals: 1129, TargetArcs: 1264}, 0x58b3ca272fd2c2bd},
		{"weak", 1, 0, DirectedResult{Rounds: 2886, Converged: true, Proposals: 86258, NewArcs: 1169, DuplicateProposals: 85089, TargetArcs: 1264}, 0xe74769fd0aab5b3d},
		{"weak", 1, 0.5, DirectedResult{Rounds: 76, Converged: true, Proposals: 2614, NewArcs: 1169, DuplicateProposals: 1445, TargetArcs: 1264}, 0x4b0d73432a8a187},
		{"layered", 0, 0, DirectedResult{Rounds: 393, Converged: true, Proposals: 7477, NewArcs: 768, DuplicateProposals: 6709, TargetArcs: 1536}, 0x4440e63b5f4ec2af},
		{"layered", 0, 0.5, DirectedResult{Rounds: 18, Converged: true, Proposals: 902, NewArcs: 768, DuplicateProposals: 134, TargetArcs: 1536}, 0x445da61d3d7084d6},
		{"layered", 1, 0, DirectedResult{Rounds: 417, Converged: true, Proposals: 7948, NewArcs: 768, DuplicateProposals: 7180, TargetArcs: 1536}, 0xd4bc05f4f94b89c1},
		{"layered", 1, 0.5, DirectedResult{Rounds: 29, Converged: true, Proposals: 837, NewArcs: 768, DuplicateProposals: 69, TargetArcs: 1536}, 0xfaaa8b2dc79d9f49},
	}
	for _, gd := range goldens {
		for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
			t.Run(fmt.Sprintf("%s/w=%d/dense=%v/%v", gd.input, gd.workers, gd.dense, b), func(t *testing.T) {
				g := inputs[gd.input](b)
				dh := newDeltaHash()
				res := runDirectedWith(g, core.DirectedTwoHop{}, rng.New(3), DirectedConfig{
					Workers:    gd.workers,
					DensePhase: gd.dense,
				}, dh)
				if res != gd.want || dh.h != gd.hash {
					t.Fatalf("golden moved:\n got  %+v %#x\n want %+v %#x", res, dh.h, gd.want, gd.hash)
				}
				if !g.IsClosed() {
					t.Fatal("converged run is not at closure")
				}
			})
		}
	}
}

// TestBackendSessionMembershipLockstep drives two membership-tracked
// sessions — dense and sparse — through the same leave/rejoin/inject/step
// schedule and asserts the coverage counters and graphs agree after every
// step. This is the PR 4 membership-accounting property re-pinned on the
// sparse substrate.
func TestBackendSessionMembershipLockstep(t *testing.T) {
	const n = 96
	mk := func(b graph.Backend) *Session {
		g := gen.Cycle(n, b)
		s := NewSession(g, core.Push{}, rng.New(4242), Config{
			Workers:   2,
			MaxRounds: -1,
			Done:      func(*graph.Undirected) bool { return false },
		})
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		s.TrackMembership(alive)
		return s
	}
	sd, ss := mk(graph.BackendDense), mk(graph.BackendSparse)
	defer sd.Close()
	defer ss.Close()
	r := rng.New(99)
	member := make([]bool, n)
	for i := range member {
		member[i] = true
	}
	for step := 0; step < 150; step++ {
		u := r.Intn(n)
		switch op := r.Intn(6); {
		case op == 0 && member[u]:
			sd.RemoveNode(u)
			ss.RemoveNode(u)
			member[u] = false
		case op == 1 && !member[u]:
			v := (u + 1 + r.Intn(n-1)) % n
			sd.InsertNode(u)
			ss.InsertNode(u)
			member[u] = true
			if sd.AddEdge(u, v) != ss.AddEdge(u, v) {
				t.Fatalf("step %d: AddEdge(%d,%d) accepted differently", step, u, v)
			}
		default:
			sd.Step()
			ss.Step()
		}
		if sd.MemberEdges() != ss.MemberEdges() {
			t.Fatalf("step %d: MemberEdges %d vs %d", step, sd.MemberEdges(), ss.MemberEdges())
		}
		if sd.MemberEdgesRemaining() != ss.MemberEdgesRemaining() {
			t.Fatalf("step %d: MemberEdgesRemaining %d vs %d",
				step, sd.MemberEdgesRemaining(), ss.MemberEdgesRemaining())
		}
		if sd.EdgesRemaining() != ss.EdgesRemaining() {
			t.Fatalf("step %d: EdgesRemaining %d vs %d", step, sd.EdgesRemaining(), ss.EdgesRemaining())
		}
	}
	if !sd.Graph().Equal(ss.Graph()) {
		t.Fatal("graphs diverged after lockstep schedule")
	}
}

// TestDeltaHashSensitivity guards the harness itself: the hash must change
// when the run changes, or the goldens above prove nothing.
func TestDeltaHashSensitivity(t *testing.T) {
	_, h1 := runFingerprint(graph.BackendDense, 64, 1, 0)
	_, h2 := runFingerprint(graph.BackendDense, 64, 1, 0.3)
	if h1 == h2 {
		t.Fatal("delta hash is insensitive to the dense phase")
	}
}
