package metrics

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// run drives a fresh session over g to completion with subs on its bus.
func run(g *graph.Undirected, p core.Process, seed uint64, cfg sim.Config, subs ...stream.Subscriber) sim.Result {
	s := sim.NewSession(g, p, rng.New(seed), cfg)
	defer s.Close()
	for _, sub := range subs {
		s.Subscribe(sub)
	}
	return s.Run()
}

// takes records Take of the live graph at every round: the scanning
// reference the incremental Trajectory must match.
func takes(dst *[]Snapshot) stream.Subscriber {
	return stream.SubscriberFunc(func(e *stream.Event) {
		if e.Kind == stream.KindRound {
			*dst = append(*dst, Take(e.Delta.Round, e.Graph))
		}
	})
}

// onCadence returns the records a trajectory with the given Every keeps
// from a converged run's full per-round series: every round divisible by
// Every, plus the final (terminal) round.
func onCadence[S any](all []S, every int, round func(S) int) []S {
	var out []S
	for i, s := range all {
		if round(s)%every == 0 || i == len(all)-1 {
			out = append(out, s)
		}
	}
	return out
}

func TestTakeSnapshot(t *testing.T) {
	g := gen.Path(5)
	s := Take(3, g)
	if s.Round != 3 || s.Edges != 4 || s.Missing != 6 || s.MinDegree != 1 || s.MaxDegree != 2 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestTrajectoryRecordsMonotoneMinDegree(t *testing.T) {
	g := gen.Cycle(10)
	traj := &Trajectory{}
	res := run(g, core.Push{}, 1, sim.Config{}, traj)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(traj.Snapshots) != res.Rounds {
		t.Fatalf("snapshots %d rounds %d", len(traj.Snapshots), res.Rounds)
	}
	mds := traj.MinDegrees()
	for i := 1; i < len(mds); i++ {
		if mds[i] < mds[i-1] {
			t.Fatalf("min degree decreased: %v", mds)
		}
	}
	if mds[len(mds)-1] != 9 {
		t.Fatalf("final min degree %d want 9", mds[len(mds)-1])
	}
}

func TestTrajectorySubsampling(t *testing.T) {
	g := gen.Path(12)
	traj := &Trajectory{Every: 5}
	res := run(g, core.Push{}, 2, sim.Config{}, traj)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(traj.Snapshots) >= res.Rounds {
		t.Fatalf("subsampling ineffective: %d snapshots for %d rounds",
			len(traj.Snapshots), res.Rounds)
	}
	// Final snapshot must capture the complete graph.
	last := traj.Snapshots[len(traj.Snapshots)-1]
	if last.Missing != 0 {
		t.Fatalf("final snapshot missing=%d", last.Missing)
	}
}

func TestRoundsToMinDegree(t *testing.T) {
	traj := &Trajectory{Snapshots: []Snapshot{
		{Round: 1, MinDegree: 1},
		{Round: 5, MinDegree: 3},
		{Round: 9, MinDegree: 7},
	}}
	if r := traj.RoundsToMinDegree(3); r != 5 {
		t.Fatalf("RoundsToMinDegree(3) = %d", r)
	}
	if r := traj.RoundsToMinDegree(2); r != 5 {
		t.Fatalf("RoundsToMinDegree(2) = %d", r)
	}
	if r := traj.RoundsToMinDegree(8); r != -1 {
		t.Fatalf("RoundsToMinDegree(8) = %d", r)
	}
}

func TestGrowthEpochs(t *testing.T) {
	g := gen.Cycle(16)
	traj := &Trajectory{}
	run(g, core.Push{}, 3, sim.Config{}, traj)
	epochs := traj.GrowthEpochs(2, 16)
	if len(epochs) == 0 {
		t.Fatal("no epochs")
	}
	// Every epoch must be reached (graph completes), and rounds must be
	// non-decreasing.
	prev := 0
	for i, e := range epochs {
		if e < 0 {
			t.Fatalf("epoch %d unreached: %v", i, epochs)
		}
		if e < prev {
			t.Fatalf("epochs not monotone: %v", epochs)
		}
		prev = e
	}
}

func TestAliveComplete(t *testing.T) {
	g := gen.Complete(4)
	alive := []bool{true, true, false, true}
	if !AliveComplete(alive)(g) {
		t.Fatal("complete graph alive-incomplete")
	}
	h := gen.Path(4)
	if AliveComplete(alive)(h) {
		t.Fatal("path alive-complete")
	}
	// Only pairs among alive nodes matter: 0-1, 0-3, 1-3.
	h.AddEdge(0, 3)
	h.AddEdge(1, 3)
	if !AliveComplete(alive)(h) {
		t.Fatal("alive pairs covered but not detected")
	}
}

// TestTrajectoryDeltaMatchesSnapshotMode: a delta-mode trajectory must
// record exactly the snapshots Take computes by scanning the graph — same
// rounds, edges, missing counts, and min/max degrees — on the rounds its
// Every cadence keeps.
func TestTrajectoryDeltaMatchesSnapshotMode(t *testing.T) {
	for _, every := range []int{1, 5} {
		var all []Snapshot
		deltaTraj := &Trajectory{Every: every}
		res := run(gen.RandomTree(90, rng.New(4)), core.Push{}, 6, sim.Config{}, takes(&all), deltaTraj)
		if !res.Converged {
			t.Fatal("run did not converge")
		}
		deltaTraj.Finalize()
		want := onCadence(all, every, func(s Snapshot) int { return s.Round })
		if len(want) != len(deltaTraj.Snapshots) {
			t.Fatalf("Every=%d: %d scanned records vs %d delta-mode", every, len(want), len(deltaTraj.Snapshots))
		}
		for i := range want {
			if want[i] != deltaTraj.Snapshots[i] {
				t.Fatalf("Every=%d record %d: scanned %+v vs delta %+v", every, i, want[i], deltaTraj.Snapshots[i])
			}
		}
	}
}

// TestTrajectoryDeltaDegreeHistogram: the incrementally maintained degree
// histogram matches a fresh full-graph computation at the end of a run.
func TestTrajectoryDeltaDegreeHistogram(t *testing.T) {
	g := gen.Path(40)
	traj := &Trajectory{}
	res := run(g, core.Pull{}, 11, sim.Config{MaxRounds: 25}, traj)
	if res.Rounds == 0 {
		t.Fatal("no rounds ran")
	}
	want := g.DegreeHistogram()
	got := traj.DegreeHistogram()
	if len(got) != len(want) {
		t.Fatalf("hist length %d want %d", len(got), len(want))
	}
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("hist[%d] = %d want %d (full %v vs %v)", d, got[d], want[d], got, want)
		}
	}
}

// TestTrajectorySubsamplingRecordsFinalRound is the regression test for the
// Every > 1 bug: with a custom Done predicate the final committed round is
// not a multiple of Every and the graph never completes, so the old Observe
// dropped it. The trajectory must always record it.
func TestTrajectorySubsamplingRecordsFinalRound(t *testing.T) {
	traj := &Trajectory{Every: 7}
	cfg := sim.Config{
		Done: func(g *graph.Undirected) bool { return g.MinDegree() >= 4 },
	}
	res := run(gen.Path(32), core.Push{}, 9, cfg, traj)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	traj.Finalize()
	if len(traj.Snapshots) == 0 {
		t.Fatal("no snapshots")
	}
	last := traj.Snapshots[len(traj.Snapshots)-1]
	if last.Round != res.Rounds {
		t.Fatalf("final snapshot round %d, want final committed round %d (Every=7)", last.Round, res.Rounds)
	}
	if last.MinDegree < 4 {
		t.Fatalf("final snapshot min degree %d", last.MinDegree)
	}
	// Finalize must be idempotent and not duplicate the final round.
	traj.Finalize()
	if n := len(traj.Snapshots); n >= 2 && traj.Snapshots[n-2].Round == last.Round {
		t.Fatal("final round recorded twice")
	}
}
