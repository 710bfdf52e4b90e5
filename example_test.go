package gossipdisc_test

// Runnable godoc examples for the public API. Outputs are deterministic
// because every entry point takes an explicit seed.

import (
	"fmt"

	"gossipdisc"
)

// ExampleRun runs the triangulation process on a small path graph.
func ExampleRun() {
	g := gossipdisc.Path(8)
	res := gossipdisc.Run(g, gossipdisc.Push{}, 1)
	fmt.Println("converged:", res.Converged)
	fmt.Println("complete:", g.IsComplete())
	fmt.Println("new edges:", res.NewEdges)
	// Output:
	// converged: true
	// complete: true
	// new edges: 21
}

// ExampleExactExpectedRounds computes an exact expectation on a tiny graph.
func ExampleExactExpectedRounds() {
	// On the 3-node path only the middle node can act, succeeding with
	// probability 1/2 per round: the expected time is exactly 2.
	fmt.Printf("%.4f\n", gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "push"))
	fmt.Printf("%.4f\n", gossipdisc.ExactExpectedRounds(gossipdisc.Path(3), "pull"))
	// Output:
	// 2.0000
	// 1.3333
}

// ExampleRunDirected terminates the directed two-hop walk at the
// transitive closure.
func ExampleRunDirected() {
	g := gossipdisc.DirectedCycle(6)
	res := gossipdisc.RunDirected(g, 7)
	fmt.Println("closed:", g.IsClosed())
	fmt.Println("target arcs:", res.TargetArcs)
	// Output:
	// closed: true
	// target arcs: 30
}

// ExampleTrials runs deterministic parallel trials.
func ExampleTrials() {
	results := gossipdisc.Trials(3, 42, func(trial int, r *gossipdisc.Rand) *gossipdisc.Graph {
		return gossipdisc.Cycle(12)
	}, gossipdisc.Push{})
	for i, res := range results {
		fmt.Printf("trial %d converged: %v\n", i, res.Converged)
	}
	// Output:
	// trial 0 converged: true
	// trial 1 converged: true
	// trial 2 converged: true
}

// ExampleWithAnalyzers_trajectory consumes the streaming delta the engine
// emits from its commit path each round: the new edges, per-node degree
// increments, and the edges-remaining counter. A metrics Trajectory
// subscribes to the same stream to record min-degree curves without
// re-scanning the graph.
func ExampleWithAnalyzers_trajectory() {
	g := gossipdisc.Path(12)
	streamed := 0
	traj := &gossipdisc.Trajectory{Every: 25}
	sess := gossipdisc.NewSession(g, gossipdisc.WithSeed(3), gossipdisc.WithAnalyzers(
		gossipdisc.SubscriberFunc(func(e *gossipdisc.Event) {
			if e.Kind == gossipdisc.KindRound {
				streamed += len(e.Delta.NewEdges) // delta slices are reused: don't retain
			}
		}),
		traj,
	))
	defer sess.Close()
	res := sess.Run()
	traj.Finalize()
	fmt.Println("delta stream edges == result new edges:", streamed == res.NewEdges)
	last := traj.Snapshots[len(traj.Snapshots)-1]
	fmt.Println("final round recorded despite subsampling:", last.Round == res.Rounds)
	fmt.Println("final min degree:", last.MinDegree)
	// Output:
	// delta stream edges == result new edges: true
	// final round recorded despite subsampling: true
	// final min degree: 11
}

// ExampleNewSession steps a run round by round through the resumable
// session API, reading O(1) progress between steps, and finishes it with
// Run — bit-identical to the one-shot Run.
func ExampleNewSession() {
	g := gossipdisc.Path(12)
	sess := gossipdisc.NewSession(g,
		gossipdisc.WithProcess(gossipdisc.Push{}),
		gossipdisc.WithSeed(3),
	)
	defer sess.Close()

	delta, _ := sess.Step()
	fmt.Println("round 1 new edges:", len(delta.NewEdges))

	// Drive to a breakpoint, then to completion.
	sess.RunUntil(func(g *gossipdisc.Graph) bool { return g.MissingEdges() <= 20 })
	fmt.Println("breakpoint round:", sess.Round(), "edges remaining:", sess.EdgesRemaining())
	res := sess.Run()

	check := gossipdisc.Path(12)
	fmt.Println("matches one-shot Run:", res == gossipdisc.Run(check, gossipdisc.Push{}, 3))
	// Output:
	// round 1 new edges: 4
	// breakpoint round: 18 edges remaining: 19
	// matches one-shot Run: true
}

// ExampleWithAnalyzers attaches the standard health-analyzer pack and a
// Prometheus exporter to a session's event bus. Subscribers ride the same
// per-round delta stream the engines already emit, so attaching them never
// changes results.
func ExampleWithAnalyzers() {
	g := gossipdisc.Path(16)
	health := gossipdisc.NewHealth()
	exporter := gossipdisc.NewPrometheusExporter()
	exporter.Attach(health)
	sess := gossipdisc.NewSession(g,
		gossipdisc.WithSeed(3),
		gossipdisc.WithAnalyzers(health, exporter),
	)
	defer sess.Close()
	res := sess.Run()

	fmt.Println("converged:", res.Converged)
	fmt.Println("components:", health.Connectivity.Components())
	fmt.Println("at risk:", health.Connectivity.AtRisk())
	for _, f := range health.Findings() {
		fmt.Println(f)
	}
	// Output:
	// converged: true
	// components: 1
	// at risk: 0
	// [info] age-of-information (round 37, node 9): mean age 6.88, max age 21.00
	// [info] connectivity (round 37): single component, 16 active nodes, none at risk
	// [info] degree-profile (round 37): mean degree 15.00, cv 0.00, drift +0.347/round
}

// ExampleWithDone stops a run at a custom condition: a minimum degree
// target rather than completeness.
func ExampleWithDone() {
	g := gossipdisc.Path(16)
	sess := gossipdisc.NewSession(g,
		gossipdisc.WithProcess(gossipdisc.Pull{}),
		gossipdisc.WithSeed(5),
		gossipdisc.WithDone(func(g *gossipdisc.Graph) bool { return g.MinDegree() >= 3 }),
	)
	defer sess.Close()
	res := sess.Run()
	fmt.Println("converged:", res.Converged)
	fmt.Println("min degree >= 3:", g.MinDegree() >= 3)
	fmt.Println("still incomplete:", !g.IsComplete())
	// Output:
	// converged: true
	// min degree >= 3: true
	// still incomplete: true
}

// ExampleNewEventSession runs the event-driven runtime: continuous
// per-node Poisson clocks instead of synchronous rounds, with a fast
// quarter of the population activating at four times the base rate. Time
// is measured in parallel-round units, and a subscribed Age tracks each
// node's age of information (time since it last learned a new peer) exactly
// at event times. Runs are bit-replayable from (seed, rates).
func ExampleNewEventSession() {
	g := gossipdisc.Path(16)
	rates := gossipdisc.NewRateMap(16, 1)
	rates.DefineClass("fast", 4)
	rates.AssignClass("fast", 0, 4)
	age := &gossipdisc.Age{}
	sess := gossipdisc.NewEventSession(g,
		gossipdisc.WithSeed(7),
		gossipdisc.WithRates(rates),
		gossipdisc.WithAnalyzers(age),
	)
	res := sess.Run()
	fmt.Println("converged:", res.Converged)
	fmt.Println("complete:", g.IsComplete())
	fmt.Printf("time: %.1f\n", res.Time)
	fmt.Printf("events: %d\n", res.Events)
	fmt.Printf("time-avg mean age: %.2f\n", age.TimeAvgMeanAge())
	// Output:
	// converged: true
	// complete: true
	// time: 40.5
	// events: 1163
	// time-avg mean age: 5.32
}

// ExampleSession_TrackMembership drives a fail-stop spike between steps,
// the paper's Section 6 setting: a 64-member swarm converges, then a third
// of it crashes and as many joiners arrive, each knowing three bootstrap
// contacts. The session keeps coverage — the share of member pairs that
// know each other — incrementally, so each read is O(1), and the crash
// layer shares the session's liveness mask, so dead members stop gossiping
// the moment they leave.
func ExampleSession_TrackMembership() {
	const members, spike = 64, 21
	alive := make([]bool, members+spike)
	for u := 0; u < members; u++ {
		alive[u] = true
	}
	// The joiner slots exist from the start; they stay unwired until they
	// are admitted.
	g := gossipdisc.NewGraph(members + spike)
	for _, e := range gossipdisc.ConnectedER(members, 3.0/members, gossipdisc.NewRand(99)).Edges() {
		g.AddEdge(e.U, e.V)
	}
	sess := gossipdisc.NewSession(g,
		gossipdisc.WithProcess(gossipdisc.Wrap(gossipdisc.Push{}, gossipdisc.Crash(alive))),
		gossipdisc.WithSeed(100),
		gossipdisc.WithMaxRounds(-1), // open-ended: the spike run is stepped, never "done"
	)
	defer sess.Close()
	sess.TrackMembership(alive)

	covered := func(*gossipdisc.Graph) bool { return sess.Coverage() == 1 }
	sess.RunUntil(covered)
	fmt.Printf("round %d: coverage %.3f, converged\n", sess.Round(), sess.Coverage())

	r := gossipdisc.NewRand(7)
	for crashed := 0; crashed < spike; {
		if u := r.Intn(members); alive[u] {
			sess.RemoveNode(u)
			crashed++
		}
	}
	var survivors []int
	for u := 0; u < members; u++ {
		if alive[u] {
			survivors = append(survivors, u)
		}
	}
	for joiner := members; joiner < members+spike; joiner++ {
		sess.InsertNode(joiner)
		for k := 0; k < 3; k++ {
			sess.AddEdge(joiner, survivors[r.Intn(len(survivors))])
		}
	}
	fmt.Printf("round %d: coverage %.3f after the spike\n", sess.Round(), sess.Coverage())

	spikeAt := sess.Round()
	sess.RunUntil(covered)
	fmt.Printf("round %d: coverage %.3f, %d rounds after the spike\n",
		sess.Round(), sess.Coverage(), sess.Round()-spikeAt)
	// Output:
	// round 294: coverage 1.000, converged
	// round 294: coverage 0.479 after the spike
	// round 793: coverage 1.000, 499 rounds after the spike
}
