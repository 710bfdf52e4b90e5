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
// This root package is the public surface the examples, the doc examples
// and README's code use, and nothing more: the graph types and a few
// workload constructors, the Push and Pull processes, the resumable round
// session and the event-driven session with their functional options, the
// health-analyzer pack and Prometheus exporter on the event bus, the role
// layer, and the exact Markov-chain solver for small graphs. Everything
// else — directed sessions, the wire stack, the paper
// experiments — lives in internal packages, driven by cmd/gossipsim and
// cmd/experiments (see DESIGN.md for the system inventory).
//
// # Quick start
//
//	g := gossipdisc.Cycle(64)
//	res := gossipdisc.Run(g, gossipdisc.Push{}, 42)
//	fmt.Printf("complete after %d rounds\n", res.Rounds)
//
// # Sessions
//
// Every run is a resumable session underneath; Run and RunDirected drive
// one to completion. Construct a Session directly (see NewSession and the
// functional options in session.go) to choose the process and budget, step
// a run round by round, read O(1) progress, subscribe to per-round deltas,
// or mutate the membership mid-flight — the shape long-running gossip
// deployments need:
//
//	sess := gossipdisc.NewSession(g, gossipdisc.WithSeed(7))
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
)

// Process types. A Process defines the per-node action of one synchronous
// round; the session engine owns commit semantics.
type (
	// Process is an undirected discovery process.
	Process = core.Process
	// Push is the triangulation process (Section 3).
	Push = core.Push
	// Pull is the two-hop walk process (Section 4).
	Pull = core.Pull
)

// Engine types.
type (
	// Result reports an undirected run.
	Result = sim.Result
	// DirectedResult reports a directed run.
	DirectedResult = sim.DirectedResult
	// Rand is the deterministic generator used throughout.
	Rand = rng.Rand
)

// Trajectory records a time series of per-round snapshots (round, edges,
// missing edges, min and max degree). It is a Subscriber: attached with
// WithAnalyzers or Subscribe it maintains degrees, the degree histogram,
// and min/max degree incrementally from the per-round deltas the commit
// path emits, so recording never re-scans the graph.
type Trajectory = metrics.Trajectory

// Backend selects a graph's row-storage strategy (see DESIGN.md "Graph
// backends"). All random sampling draws from backend-independent adjacency
// lists, so simulation results are byte-identical across backends — pick
// by memory footprint.
type Backend = graph.Backend

// BackendSparse reads short rows straight from the adjacency lists and
// keeps sorted rows promoting to bitsets past a density threshold (O(m)
// memory) — the backend for n = 100k–1M. NewGraph's dense default keeps an
// n-bit row per node (O(n²) bits).
const BackendSparse = graph.BackendSparse

// NewGraph returns an empty undirected graph on n nodes on the dense
// backend.
func NewGraph(n int) *Graph { return graph.NewUndirected(n) }

// NewGraphOn returns an empty undirected graph on n nodes on the given
// row-storage backend.
func NewGraphOn(n int, b Backend) *Graph { return graph.NewUndirectedOn(n, b) }

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Workload constructors from the full generator set in internal/gen
// (cmd/gossipsim -list shows every family).
var (
	// Path returns the n-node path graph.
	Path = gen.Path
	// Cycle returns the n-node cycle.
	Cycle = gen.Cycle
	// ConnectedER returns a connected Erdős–Rényi sample.
	ConnectedER = gen.ConnectedER
	// DirectedCycle returns the directed n-cycle.
	DirectedCycle = gen.DirectedCycle
)

// Run executes process p on g (mutating it) until g is complete, using the
// paper's synchronous-round semantics on the sequential engine, and returns
// the run statistics. NewSession(g, opts...).Run() is the configurable form.
func Run(g *Graph, p Process, seed uint64) Result {
	return sim.Run(g, p, rng.New(seed), sim.Config{})
}

// RunDirected executes the directed two-hop walk (Section 5) on g until it
// contains the transitive closure of the initial graph.
func RunDirected(g *Digraph, seed uint64) DirectedResult {
	return sim.RunDirected(g, core.DirectedTwoHop{}, rng.New(seed), sim.DirectedConfig{})
}

// Trials runs numTrials independent deterministic trials of p in parallel;
// build receives the trial index and a trial-private generator.
func Trials(numTrials int, seed uint64, build func(trial int, r *Rand) *Graph, p Process) []Result {
	return sim.Trials(0, numTrials, seed, build, func(g *Graph, r *Rand) Result {
		return sim.Run(g, p, r, sim.Config{})
	})
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
