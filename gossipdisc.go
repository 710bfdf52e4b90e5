// Package gossipdisc is a faithful, production-quality implementation and
// experimental reproduction of the gossip-based discovery processes of
//
//	"Discovery through Gossip"
//	B. Haeupler, G. Pandurangan, D. Peleg, R. Rajaraman, Z. Sun
//	SPAA 2012 (arXiv:1202.2092)
//
// The paper studies two lightweight randomized processes that let every
// node of a connected network discover every other node using only
// O(log n)-bit messages:
//
//   - Push discovery (triangulation): each round, every node introduces two
//     uniformly random neighbors to one another.
//   - Pull discovery (two-hop walk): each round, every node takes a two-hop
//     random walk and connects to the endpoint.
//
// Both converge to the complete graph in O(n log² n) rounds w.h.p. on any
// connected undirected graph (Theorems 8 and 12), with an Ω(n log k) lower
// bound (Theorems 9 and 13). On directed graphs the two-hop walk reaches
// the transitive closure in O(n² log n) rounds (Theorem 14), with Ω(n²)
// for an explicit strongly connected instance (Theorem 15).
//
// This root package is the stable public surface: it re-exports the graph
// substrate, the processes, the resumable session engine, the exact
// Markov-chain solver for small graphs, and the registered paper
// experiments. The heavy lifting lives in internal packages (see DESIGN.md
// for the system inventory).
//
// # Quick start
//
//	g := gossipdisc.Cycle(64)
//	res := gossipdisc.Run(g, gossipdisc.Push{}, 42)
//	fmt.Printf("complete after %d rounds\n", res.Rounds)
//
// # Sessions
//
// Every run is a resumable Session underneath; Run and RunDirected drive
// one to completion. Construct a Session directly (see NewSession and the
// functional options in session.go) to choose the engine, step a run round
// by round, read O(1) progress, subscribe to per-round deltas, or mutate
// the membership mid-flight — the shape long-running gossip deployments
// need:
//
//	sess := gossipdisc.NewSession(g, gossipdisc.WithWorkers(1))
//	defer sess.Close()
//	for {
//	    delta, more := sess.Step()
//	    _ = delta // new edges, degree increments, edges remaining
//	    if !more {
//	        break
//	    }
//	}
package gossipdisc

import (
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/markov"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

// Core graph types. Node identifiers are dense ints in [0, N()).
type (
	// Graph is a simple undirected graph tuned for the discovery
	// processes: O(1) random neighbor sampling and O(1) edge membership.
	Graph = graph.Undirected
	// Digraph is the directed counterpart.
	Digraph = graph.Directed
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Arc is a directed edge.
	Arc = graph.Arc
)

// Process types. A Process defines the per-node action of one synchronous
// round; the session engine owns commit semantics.
type (
	// Process is an undirected discovery process.
	Process = core.Process
	// DirectedProcess is a directed discovery process.
	DirectedProcess = core.DirectedProcess
	// Push is the triangulation process (Section 3).
	Push = core.Push
	// Pull is the two-hop walk process (Section 4).
	Pull = core.Pull
	// DirectedTwoHop is the directed two-hop walk (Section 5).
	DirectedTwoHop = core.DirectedTwoHop
)

// Engine types.
type (
	// CommitMode selects when proposed edges are inserted into the graph.
	CommitMode = sim.CommitMode
	// Result reports an undirected run.
	Result = sim.Result
	// DirectedResult reports a directed run.
	DirectedResult = sim.DirectedResult
	// Rand is the deterministic generator used throughout.
	Rand = rng.Rand
)

// Per-round deltas (see DESIGN.md "Observing a run"). The commit path
// emits a per-round delta — the new edges, the degree increments they
// imply, and the O(1) edges-remaining counter — so trajectory recording
// never re-scans the graph.
type (
	// RoundDelta is one committed round's change set for undirected runs,
	// returned by Step and carried by KindRound events.
	RoundDelta = sim.RoundDelta
	// DirectedRoundDelta is the directed counterpart, carrying the
	// closure-arcs-remaining progress counter.
	DirectedRoundDelta = sim.DirectedRoundDelta
)

// Trajectory recording (package metrics re-exports). A Trajectory is a
// Subscriber: attached with WithAnalyzers or Subscribe it maintains
// degrees, the degree histogram, and min/max degree incrementally from the
// delta stream.
type (
	// Snapshot is a per-round summary of an undirected graph's state.
	Snapshot = metrics.Snapshot
	// Trajectory records a time series of Snapshots.
	Trajectory = metrics.Trajectory
	// DirectedSnapshot is a per-round summary of a directed run.
	DirectedSnapshot = metrics.DirectedSnapshot
	// DirectedTrajectory records directed snapshots.
	DirectedTrajectory = metrics.DirectedTrajectory
)

// Commit semantics (see DESIGN.md "Synchronous commit semantics").
const (
	// CommitSynchronous buffers a round's proposals and commits them
	// together — the paper's G_t → G_{t+1} model. This is the default.
	CommitSynchronous = sim.CommitSynchronous
	// CommitEager applies proposals immediately (ablation).
	CommitEager = sim.CommitEager
)

// Graph row-storage backends (see DESIGN.md "Graph backends"): all random
// sampling draws from backend-independent adjacency lists, so simulation
// results are byte-identical across backends — pick by memory footprint.
const (
	// BackendDense keeps an n-bit row per node in one flat bit matrix (O(n²)
	// bits) — the golden reference, right up to a few thousand nodes.
	BackendDense = graph.BackendDense
	// BackendSparse reads short rows straight from the adjacency lists and
	// keeps sorted rows promoting to bitsets past a density threshold (O(m)
	// memory) — the backend for n = 100k–1M.
	BackendSparse = graph.BackendSparse
	// BackendAuto picks dense or sparse from n at construction time.
	BackendAuto = graph.BackendAuto
)

// Backend selects a graph's row-storage strategy.
type Backend = graph.Backend

// NewGraph returns an empty undirected graph on n nodes on the dense
// backend.
func NewGraph(n int) *Graph { return graph.NewUndirected(n) }

// NewGraphOn returns an empty undirected graph on n nodes on the given
// row-storage backend.
func NewGraphOn(n int, b Backend) *Graph { return graph.NewUndirectedOn(n, b) }

// NewDigraph returns an empty directed graph on n nodes on the dense
// backend.
func NewDigraph(n int) *Digraph { return graph.NewDirected(n) }

// NewDigraphOn returns an empty directed graph on n nodes on the given
// row-storage backend.
func NewDigraphOn(n int, b Backend) *Digraph { return graph.NewDirectedOn(n, b) }

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Common workload constructors, re-exported from the full generator set in
// internal/gen (the CLI exposes every family; these cover the README).
var (
	// Path returns the n-node path graph.
	Path = gen.Path
	// Cycle returns the n-node cycle.
	Cycle = gen.Cycle
	// Star returns the n-node star.
	Star = gen.Star
	// Complete returns K_n.
	Complete = gen.Complete
	// RandomTree returns a random spanning-tree workload.
	RandomTree = gen.RandomTree
	// ConnectedER returns a connected Erdős–Rényi sample.
	ConnectedER = gen.ConnectedER
	// DirectedCycle returns the directed n-cycle.
	DirectedCycle = gen.DirectedCycle
	// Thm15Graph returns the strongly connected Ω(n²) construction of
	// Theorem 15 (Figures 3–4).
	Thm15Graph = gen.Thm15StrongLowerBound
)

// Run executes process p on g (mutating it) until g is complete, using the
// paper's synchronous-round semantics on the sequential engine, and returns
// the run statistics. NewSession(g, opts...).Run() is the configurable form.
func Run(g *Graph, p Process, seed uint64) Result {
	return sim.Run(g, p, rng.New(seed), sim.Config{})
}

// RunDirected executes the directed two-hop walk on g until it contains the
// transitive closure of the initial graph. NewDirectedSession(g,
// opts...).Run() is the configurable form.
func RunDirected(g *Digraph, seed uint64) DirectedResult {
	return sim.RunDirected(g, core.DirectedTwoHop{}, rng.New(seed), sim.DirectedConfig{})
}

// Trials runs numTrials independent deterministic trials of p in parallel;
// build receives the trial index and a trial-private generator.
func Trials(numTrials int, seed uint64, build func(trial int, r *Rand) *Graph, p Process) []Result {
	return sim.Trials(numTrials, seed, build, p, sim.Config{})
}

// ExactExpectedRounds returns the exact expected number of rounds for the
// push or pull process (kernel "push" or "pull") to complete a small
// connected graph (n ≤ 5), computed by the absorbing-Markov-chain solver.
func ExactExpectedRounds(g *Graph, kernel string) float64 {
	switch kernel {
	case "push":
		return markov.ExpectedTime(g, markov.PushKernel{})
	case "pull":
		return markov.ExpectedTime(g, markov.PullKernel{})
	default:
		panic("gossipdisc: kernel must be \"push\" or \"pull\"")
	}
}
