package sim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/simtest"
	"gossipdisc/internal/stream"
)

// shadow rebuilds the graph from start and the delta stream alone and
// requires it to equal the live graph after every round: every delta edge
// is new, and no insertion is missing from the stream.
func shadow(t *testing.T, start *graph.Undirected) stream.Subscriber {
	return stream.SubscriberFunc(func(e *stream.Event) {
		if e.Kind != stream.KindRound {
			return
		}
		for _, x := range e.Delta.NewEdges {
			if !start.AddEdge(x.U, x.V) {
				t.Fatalf("round %d: delta edge %v already in the shadow graph", e.Delta.Round, x)
			}
		}
		if !start.Equal(e.Graph) {
			t.Fatalf("round %d: accumulated deltas diverge from the live graph", e.Delta.Round)
		}
	})
}

// TestDeltaReconstructsObserverSnapshots: for both processes, accumulating
// the delta stream onto a shadow graph reconstructs, round for round,
// exactly the live graph the event carries. CI runs this under -race.
func TestDeltaReconstructsObserverSnapshots(t *testing.T) {
	for _, proc := range []core.Process{core.Push{}, core.Pull{}} {
		row := session(proc.Name(), tree(110, 5), proc, 99, Config{})
		converged(t, simtest.Run(t, row, shadow(t, tree(110, 5)())))
	}
}

// TestDeltaReconstructsObserverSnapshotsDirected repeats the reconstruction
// property for the directed session, including the closure-remaining
// counter reaching zero exactly at termination.
func TestDeltaReconstructsObserverSnapshotsDirected(t *testing.T) {
	sh, lastRemaining := strong(90, 8)(), -1
	row := directed("directed", strong(90, 8), core.DirectedTwoHop{}, 17, DirectedConfig{})
	converged(t, simtest.Run(t, row, stream.SubscriberFunc(func(e *stream.Event) {
		d := e.DirectedDelta
		for _, a := range d.NewArcs {
			if !sh.AddArc(a.U, a.V) {
				t.Fatalf("round %d: delta arc %v already in shadow graph", d.Round, a)
			}
		}
		lastRemaining = d.ClosureArcsRemaining
		if !sh.Equal(e.Digraph) {
			t.Fatalf("round %d: accumulated deltas diverge from the live graph", d.Round)
		}
	})))
	if lastRemaining != 0 {
		t.Fatalf("final ClosureArcsRemaining = %d", lastRemaining)
	}
}

// TestDeltaEagerMode: CommitEager emits per-round deltas too, and they
// reconstruct the eager trajectory exactly.
func TestDeltaEagerMode(t *testing.T) {
	converged(t, simtest.Run(t, session("eager", cycle(48), core.Push{}, 3, Config{Mode: CommitEager}), shadow(t, gen.Cycle(48))))
}
