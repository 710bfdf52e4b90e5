package sim

import (
	"reflect"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// checkDeltaConsistency validates the internal consistency of one emitted
// undirected delta: degree increments must be exactly the increments implied
// by NewEdges, Touched must list the nonzero increments in first-touch
// order, and EdgesRemaining must match the graph.
func checkDeltaConsistency(t *testing.T, g *graph.Undirected, d *RoundDelta) {
	t.Helper()
	want := make(map[int32]int32)
	var order []int32
	for _, e := range d.NewEdges {
		if e.U >= e.V {
			t.Fatalf("round %d: delta edge %v not normalized", d.Round, e)
		}
		for _, x := range []int32{int32(e.U), int32(e.V)} {
			if want[x] == 0 {
				order = append(order, x)
			}
			want[x]++
		}
	}
	if len(d.Touched) != len(want) {
		t.Fatalf("round %d: %d touched nodes, want %d", d.Round, len(d.Touched), len(want))
	}
	for i, u := range d.Touched {
		if order[i] != u {
			t.Fatalf("round %d: touched[%d] = %d, want first-touch order %d", d.Round, i, u, order[i])
		}
		if d.DegreeInc[u] != want[u] {
			t.Fatalf("round %d: DegreeInc[%d] = %d, want %d", d.Round, u, d.DegreeInc[u], want[u])
		}
	}
	if d.EdgesRemaining != g.MissingEdges() {
		t.Fatalf("round %d: EdgesRemaining %d != graph %d", d.Round, d.EdgesRemaining, g.MissingEdges())
	}
}

// TestDeltaReconstructsObserverSnapshots: for every engine (Workers 0, 1,
// 2, 8) and both processes, accumulating the delta stream onto a shadow
// graph reconstructs, round for round, exactly the live graph the event
// carries — the snapshot is taken inside the subscriber, after the delta
// is applied. CI runs this under -race.
func TestDeltaReconstructsObserverSnapshots(t *testing.T) {
	for _, proc := range []core.Process{core.Push{}, core.Pull{}} {
		for _, workers := range []int{0, 1, 2, 8} {
			g := gen.RandomTree(110, rng.New(5))
			shadow := g.Clone()
			rounds := 0
			res := runWith(g, proc, rng.New(99), Config{Workers: workers}, stream.SubscriberFunc(func(ev *stream.Event) {
				d := ev.Delta
				rounds++
				if d.Round != rounds {
					t.Fatalf("delta round %d, want %d", d.Round, rounds)
				}
				checkDeltaConsistency(t, ev.Graph, d)
				for _, e := range d.NewEdges {
					if !shadow.AddEdge(e.U, e.V) {
						t.Fatalf("round %d: delta edge %v already in shadow graph", d.Round, e)
					}
				}
				if !shadow.Equal(ev.Graph) {
					t.Fatalf("%s Workers=%d round %d: accumulated deltas diverge from the live graph",
						proc.Name(), workers, d.Round)
				}
			}))
			if !res.Converged {
				t.Fatalf("%s Workers=%d did not converge", proc.Name(), workers)
			}
			if rounds != res.Rounds {
				t.Fatalf("%s Workers=%d: %d deltas for %d rounds", proc.Name(), workers, rounds, res.Rounds)
			}
			if !shadow.IsComplete() {
				t.Fatalf("%s Workers=%d: reconstructed graph incomplete", proc.Name(), workers)
			}
		}
	}
}

// TestDeltaReconstructsObserverSnapshotsDirected repeats the reconstruction
// property for the directed engines, including the closure-remaining
// counter reaching zero exactly at termination.
func TestDeltaReconstructsObserverSnapshotsDirected(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		g := gen.RandomStronglyConnected(90, 30, rng.New(8))
		shadow := g.Clone()
		lastRemaining := -1
		res := runDirectedWith(g, core.DirectedTwoHop{}, rng.New(17), DirectedConfig{Workers: workers}, stream.SubscriberFunc(func(e *stream.Event) {
			d := e.DirectedDelta
			for _, a := range d.NewArcs {
				if !shadow.AddArc(a.U, a.V) {
					t.Fatalf("round %d: delta arc %v already in shadow graph", d.Round, a)
				}
			}
			lastRemaining = d.ClosureArcsRemaining
			if !shadow.Equal(e.Digraph) {
				t.Fatalf("Workers=%d round %d: accumulated deltas diverge from the live graph", workers, d.Round)
			}
		}))
		if !res.Converged {
			t.Fatalf("Workers=%d did not converge", workers)
		}
		if lastRemaining != 0 {
			t.Fatalf("Workers=%d: final ClosureArcsRemaining = %d", workers, lastRemaining)
		}
		if !shadow.Equal(g) {
			t.Fatalf("Workers=%d: reconstructed digraph differs", workers)
		}
	}
}

// flatDelta is a retained copy of one emitted delta, for cross-run
// comparison.
type flatDelta struct {
	Round     int
	NewEdges  []graph.Edge
	Touched   []int32
	Incs      []int32
	Remaining int
}

// recordDeltas runs a sharded push run and returns deep copies of every
// emitted delta.
func recordDeltas(workers int) []flatDelta {
	var out []flatDelta
	g := gen.Cycle(140)
	runWith(g, core.Push{}, rng.New(12), Config{Workers: workers}, stream.SubscriberFunc(func(e *stream.Event) {
		d := e.Delta
		f := flatDelta{
			Round:     d.Round,
			NewEdges:  append([]graph.Edge(nil), d.NewEdges...),
			Touched:   append([]int32(nil), d.Touched...),
			Remaining: d.EdgesRemaining,
		}
		for _, u := range d.Touched {
			f.Incs = append(f.Incs, d.DegreeInc[u])
		}
		out = append(out, f)
	}))
	return out
}

// TestDeltaStreamDeterministicAcrossWorkers: the delta stream — not just
// the final Result — is bit-identical for every Workers >= 1, including the
// order of NewEdges and Touched. CI runs this under -race.
func TestDeltaStreamDeterministicAcrossWorkers(t *testing.T) {
	base := recordDeltas(1)
	if len(base) == 0 {
		t.Fatal("no deltas recorded")
	}
	for _, w := range []int{2, 8} {
		got := recordDeltas(w)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Workers=%d delta stream differs from Workers=1", w)
		}
	}
}

// TestDeltaEagerMode: CommitEager emits per-round deltas too, and they
// reconstruct the eager trajectory exactly.
func TestDeltaEagerMode(t *testing.T) {
	g := gen.Cycle(48)
	shadow := g.Clone()
	total := 0
	res := runWith(g, core.Push{}, rng.New(3), Config{Mode: CommitEager}, stream.SubscriberFunc(func(ev *stream.Event) {
		d := ev.Delta
		checkDeltaConsistency(t, ev.Graph, d)
		for _, e := range d.NewEdges {
			if !shadow.AddEdge(e.U, e.V) {
				t.Fatalf("eager delta edge %v duplicated", e)
			}
		}
		total += len(d.NewEdges)
	}))
	if !res.Converged || total != res.NewEdges || !shadow.Equal(g) {
		t.Fatalf("eager delta stream inconsistent: %+v total=%d", res, total)
	}
}

// TestDeltaAsync: the asynchronous scheduler emits one delta per parallel
// round (n ticks) plus a final partial round, and the stream reconstructs
// the final graph.
func TestDeltaAsync(t *testing.T) {
	g := gen.Cycle(40)
	shadow := g.Clone()
	total, emits := 0, 0
	s := NewAsyncSession(g, core.Push{}, rng.New(21), AsyncConfig{})
	s.Subscribe(stream.SubscriberFunc(func(ev *stream.Event) {
		d := ev.Delta
		emits++
		if d.Round != emits {
			t.Fatalf("async delta round %d, want %d", d.Round, emits)
		}
		for _, e := range d.NewEdges {
			if !shadow.AddEdge(e.U, e.V) {
				t.Fatalf("async delta edge %v duplicated", e)
			}
		}
		total += len(d.NewEdges)
	}))
	res := s.Run()
	if !res.Converged {
		t.Fatalf("async run did not converge: %+v", res)
	}
	if total != res.NewEdges || !shadow.Equal(g) {
		t.Fatalf("async delta stream inconsistent: total=%d want %d", total, res.NewEdges)
	}
}

// TestDeltaSteadyStateAllocs: the delta pipeline keeps rounds
// allocation-flat once its buffers are warm, for both engine families.
// Skipped under -race, which instruments allocations.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	sink := 0
	for _, workers := range []int{0, 1, 4} {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				g := gen.Star(64)
				runWith(g, fixedProbe{}, rng.New(1), Config{Workers: workers, MaxRounds: rounds},
					stream.SubscriberFunc(func(e *stream.Event) {
						sink += len(e.Delta.NewEdges) + e.Delta.EdgesRemaining
					}))
			})
		}
		short, long := allocs(50), allocs(1050)
		if extra := long - short; extra > 2 {
			t.Errorf("Workers=%d: %v allocations across 1000 steady-state delta rounds (short=%v long=%v)",
				workers, extra, short, long)
		}
	}
	_ = sink
}
