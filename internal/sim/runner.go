// Package sim executes gossip discovery processes in synchronous rounds,
// exposes them as resumable steppable sessions, and runs multi-trial
// experiments in parallel.
//
// The round engine owns the commit semantics. Under CommitSynchronous — the
// paper's model — every node's random choices in round t read G_t, and all
// proposed edges are inserted together to form G_{t+1}. CommitEager applies
// each proposal immediately, so later nodes in the same round observe edges
// added by earlier ones; it is provided as an ablation (experiment E15
// reports both; the asymptotics are indistinguishable).
//
// # Sessions
//
// The primary surface is the resumable Session (session.go) and its
// directed counterpart (DirectedSession): construct once from (graph,
// process, generator, config), then drive with Step / Run / RunUntil and
// read progress through O(1) accessors. The facades Run and RunDirected
// construct a session, drive it to completion and close it; a stepped
// session consumes exactly the generator stream the facade consumes, so
// the two are bit-identical round for round. Sessions additionally support
// between-step mutation (InsertNode / RemoveNode / AddEdge with
// membership-aware deltas and O(1) coverage), which is what the churn
// package builds on. RunAsync (async.go) is not a session: it is the plain
// loop of the uniform asynchronous model, kept as the reference the event
// runtime (internal/eventsim) is checked against.
//
// # One stream per round
//
// The paper fixes what a round is — every node acts on G_t, and the
// round's proposals commit together — but not which random stream each
// node draws from. Here every synchronous round acts all nodes inline, in
// node order, on the session's own generator, and commits the round's
// proposals, in node order, once through the batched graph commit paths.
// A run is therefore a pure function of (graph, process, generator), for
// any GOMAXPROCS. Config.Workers is ignored: any other stream layout would
// give a second trajectory with the same law, and acting a round on
// several goroutines measured no faster (DESIGN.md, "Parallel trial
// pools").
//
// # The parallel trial harness
//
// Independent trials are executed by Trials (trials.go), generic over the
// input a trial builds and the record it returns, on a pool whose size the
// caller bounds (0 = GOMAXPROCS, 1 = strictly sequential). Per-trial
// generators are sequential splits of the root taken before any work is
// dispatched, and results come back in trial order, so a caller that folds
// them after the pool drains gets byte-identical output for every pool
// size. Trial-level parallelism is the only concurrency in this package: a
// round runs on one goroutine.
//
// A session allocates only at its start: the propose closure is hoisted
// out of the per-node loop, and the round buffer is reused across rounds,
// so a steady-state round — equivalently, a steady-state Session.Step —
// performs zero allocations.
//
// # Observing a run
//
// Synchronous commits go through the grouped graph commit paths
// (graph.Undirected.AddEdgesGrouped / graph.Directed.AddArcsGrouped), which
// probe each proposal's bit in its graph row once (test, then set only if
// it was new) and return the newly inserted edges. That accepted list is
// the round's *delta*: new edges, per-node degree increments, and the O(1)
// progress counter (edges remaining, or closure arcs remaining). Step
// returns it, and every session publishes it on its observation bus, which
// Subscribe attaches consumers to (internal/stream) — the one way to watch
// a run on every runtime. Incremental consumers such as metrics.Trajectory
// rebuild every snapshot quantity from the stream, so trajectory recording
// costs O(new edges) per round instead of a full O(n + m) graph inspection.
// Deltas obey the same determinism contract as Result.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// CommitMode selects when proposed edges are inserted into the graph.
type CommitMode int

const (
	// CommitSynchronous buffers all proposals of a round and inserts them
	// after every node has acted — the paper's G_t → G_{t+1} semantics.
	CommitSynchronous CommitMode = iota
	// CommitEager inserts each proposal immediately (ablation).
	CommitEager
)

// String implements fmt.Stringer.
func (m CommitMode) String() string {
	switch m {
	case CommitSynchronous:
		return "sync"
	case CommitEager:
		return "eager"
	default:
		return fmt.Sprintf("CommitMode(%d)", int(m))
	}
}

// Config controls a single run or session.
type Config struct {
	// MaxRounds aborts the run after this many rounds. 0 means a generous
	// default of 500·n·(log₂n+1)² rounds, far beyond the w.h.p. bounds; any
	// negative value means unbounded and is meaningful only for stepped
	// Sessions (open-ended dynamics such as churn never converge) — the
	// Run facade normalizes negatives back to the default budget.
	MaxRounds int
	// Mode selects the commit semantics (default CommitSynchronous).
	Mode CommitMode
	// Workers is ignored: every round acts all nodes on the session's
	// generator (see the package comment). The field is kept only because
	// cmd/bench still sets it; ROADMAP item 1 deletes it. A negative value
	// still panics at session construction.
	Workers int
	// DensePhase, when in (0, 1], arms the dense-phase engine mode: once
	// the number of missing node pairs drops to DensePhase × n(n-1)/2, the
	// act phase switches from scanning all n nodes to sampling proposals
	// from the complement graph — each draw picks a missing (node, partner)
	// incidence uniformly (nodes are thereby weighted by their missing
	// work) and proposes that exact missing edge, so late rounds spend time
	// proportional to the work remaining instead of mostly proposing
	// duplicates. Dense rounds bypass the Process entirely (its Act is
	// never called, so wrappers such as core.Wrap(p, core.Fail(q)) stop applying once the
	// phase flips) — the mode is an engine-level accelerator for
	// convergence runs, not a re-expression of the process. 0 (the
	// default) disables the mode and keeps every legacy result
	// bit-identical; the dense trajectory is deterministic with its own
	// goldens. The switch is evaluated against the full graph (not the
	// member subgraph) and applies only under CommitSynchronous;
	// CommitEager ignores it. Values outside [0, 1] panic at session
	// construction.
	DensePhase float64
	// Done, if non-nil, overrides the convergence predicate (default:
	// graph is complete). It is evaluated after every round.
	Done func(g *graph.Undirected) bool
}

// Result reports a single run.
type Result struct {
	// Rounds is the number of rounds executed until convergence (or until
	// MaxRounds if Converged is false).
	Rounds int
	// Converged reports whether the Done predicate was reached.
	Converged bool
	// Proposals counts every edge proposal made by the process.
	Proposals int
	// NewEdges counts proposals that inserted a previously missing edge.
	NewEdges int
	// DuplicateProposals counts proposals whose edge already existed
	// (including duplicates within the same synchronous round).
	DuplicateProposals int
}

// validateWorkers rejects a negative value of the ignored Workers field
// with a clear panic at session construction, as it did while the field
// chose a layout: a negative count is a caller bug.
func validateWorkers(workers int, field string) {
	if workers < 0 {
		panic(fmt.Sprintf("sim: %s = %d is not a worker count (the field is ignored; leave it 0)", field, workers))
	}
}

// DefaultMaxRounds returns the default round budget for an n-node graph:
// 500·n·(log₂n+1)² with log₂ rounded up to the bit length, comfortably
// above the paper's O(n log² n) w.h.p. bound. It saturates at math.MaxInt
// instead of wrapping, as a 32-bit int would from n = 20 000.
func DefaultMaxRounds(n int) int {
	if n < 2 {
		return 1
	}
	lg := bits.Len(uint(n))
	return mulSat(500*(lg+1)*(lg+1), n)
}

// ActivationBudget returns the activation budget of rounds parallel rounds
// on n nodes — rounds × n ticks or events — saturating at math.MaxInt
// instead of wrapping: the default budget n × DefaultMaxRounds(n) passes
// MaxInt from n = 5 659 117, and a wrapped product would stop a run at
// activation 0.
func ActivationBudget(rounds, n int) int { return mulSat(rounds, n) }

// mulSat returns a·b for a, b >= 0, saturating at math.MaxInt.
func mulSat(a, b int) int {
	if b > 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// Run executes p on g (mutating g) until convergence or the round budget is
// exhausted, and returns the run statistics. It is a thin wrapper over a
// Session driven to completion; use NewSession directly to step, observe,
// or mutate the run in flight. Unlike a stepped Session, the facade keeps
// its historical budget semantics for every input: MaxRounds <= 0 selects
// the default budget (an unbounded fire-and-forget run could never return).
func Run(g *graph.Undirected, p core.Process, r *rng.Rand, cfg Config) Result {
	if cfg.MaxRounds < 0 {
		cfg.MaxRounds = 0
	}
	s := NewSession(g, p, r, cfg)
	defer s.Close()
	return s.Run()
}

// DirectedConfig controls a directed run or session.
type DirectedConfig struct {
	// MaxRounds aborts the run (0 means 500·n²·(log₂n+1), above the
	// O(n² log n) w.h.p. bound of Theorem 14; negative means unbounded,
	// for stepped DirectedSessions).
	MaxRounds int
	// Mode selects commit semantics (default CommitSynchronous).
	Mode CommitMode
	// Workers is ignored, exactly as Config.Workers (including the panic
	// on a negative value); it is kept only because cmd/bench still sets
	// it, and ROADMAP item 1 deletes it.
	Workers int
	// DensePhase, when in (0, 1], arms the directed dense-phase mode: once
	// the number of still-missing transitive-closure arcs drops to
	// DensePhase × TargetArcs, the act phase samples missing closure arcs
	// directly — a uniform draw over the per-node missing-closure
	// incidences — instead of scanning all n nodes for two-hop walks.
	// Dense proposals are always arcs of the initial graph's closure, so
	// the closure invariant (and the termination counter built on it) is
	// preserved. Semantics otherwise mirror Config.DensePhase: 0 disables,
	// sync-only, panics outside [0, 1].
	DensePhase float64
	// Done, if non-nil, overrides the termination predicate (default: the
	// graph contains the transitive closure of the initial graph). It is
	// evaluated after every round and honored by both engine families,
	// mirroring Config.Done.
	Done func(g *graph.Directed) bool
}

// DirectedResult reports a directed run.
type DirectedResult struct {
	Rounds             int
	Converged          bool
	Proposals          int
	NewArcs            int
	DuplicateProposals int
	// TargetArcs is the number of arcs in the transitive closure of the
	// initial graph (the termination target).
	TargetArcs int
}

// DefaultDirectedMaxRounds returns the default directed round budget,
// 500·n²·(log₂n+1) with log₂ rounded up to the bit length, saturating at
// math.MaxInt like DefaultMaxRounds.
func DefaultDirectedMaxRounds(n int) int {
	if n < 2 {
		return 1
	}
	lg := bits.Len(uint(n))
	return mulSat(mulSat(500*(lg+1), n), n)
}

// RunDirected executes p on g until g contains the transitive closure of the
// initial graph (the paper's termination condition in Section 5), or until
// cfg.Done fires when set.
//
// The closure of the *initial* graph is computed once; because the two-hop
// walk only adds arcs (u, w) already implied by a u→v→w path, the closure is
// invariant throughout the run, so tracking the count of still-missing
// closure arcs gives an O(1)-per-arc termination test. It is a thin wrapper
// over a DirectedSession driven to completion; as with Run, the facade
// keeps its historical MaxRounds <= 0 ⇒ default-budget semantics.
func RunDirected(g *graph.Directed, p core.DirectedProcess, r *rng.Rand, cfg DirectedConfig) DirectedResult {
	if cfg.MaxRounds < 0 {
		cfg.MaxRounds = 0
	}
	s := NewDirectedSession(g, p, r, cfg)
	defer s.Close()
	return s.Run()
}
