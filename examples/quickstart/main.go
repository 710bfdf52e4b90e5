// Quickstart: run both discovery processes on a 64-node cycle and watch
// them converge to the complete graph.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"gossipdisc"
)

func main() { run(os.Stdout) }

// run executes the walkthrough and writes its report to w.
func run(w io.Writer) {
	const n = 64

	// Push discovery (triangulation): every round, every node introduces
	// two random neighbors to each other.
	g := gossipdisc.Cycle(n)
	res := gossipdisc.Run(g, gossipdisc.Push{}, 42)
	fmt.Fprintf(w, "push: %d-node cycle became complete after %d rounds (%d introductions, %d of them redundant)\n",
		n, res.Rounds, res.Proposals, res.DuplicateProposals)

	// Pull discovery (two-hop walk): every round, every node pulls a random
	// contact of a random neighbor.
	h := gossipdisc.Cycle(n)
	res = gossipdisc.Run(h, gossipdisc.Pull{}, 42)
	fmt.Fprintf(w, "pull: %d-node cycle became complete after %d rounds\n", n, res.Rounds)

	// The paper's Theorem 8/12 bound is O(n log² n); normalize to see it.
	lnN := math.Log(float64(n))
	fmt.Fprintf(w, "for scale: n·ln²n = %.0f\n", float64(n)*lnN*lnN)

	// Watch discovery happen. The session publishes a delta from its commit
	// path after every round (new edges, degree increments, edges left);
	// a subscribed Trajectory consumes the stream incrementally, so
	// recording the whole min-degree curve never re-scans the graph.
	traj := &gossipdisc.Trajectory{Every: 10}
	sess := gossipdisc.NewSession(gossipdisc.Cycle(n), gossipdisc.WithSeed(42))
	sess.Subscribe(traj)
	sess.Run()
	sess.Close()
	traj.Finalize()
	fmt.Fprint(w, "min degree every 10 rounds: ")
	for _, s := range traj.Snapshots {
		fmt.Fprintf(w, "%d ", s.MinDegree)
	}
	fmt.Fprintln(w)

	// For tiny graphs the library can compute expected times *exactly*
	// (absorbing Markov chain over edge subsets).
	p3 := gossipdisc.Path(3)
	fmt.Fprintf(w, "exact: E[rounds] for push on the 3-path = %.4f (theory: 2)\n",
		gossipdisc.ExactExpectedRounds(p3, "push"))
}
