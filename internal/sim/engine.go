package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gossipdisc/internal/rng"
)

// This file implements the sharded parallel round engine (Workers >= 1 or
// WorkersAuto). The engine only owns the act phase: the round core
// (round.go) creates one lazily at a session's first step, calls actRound
// once per round, commits the shard buffers through its substrate, and keeps
// the worker goroutines parked between steps until Close.
//
// Determinism contract. The node set [0, n) is partitioned into fixed
// contiguous shards of shardNodes nodes; the shard layout depends only on n,
// never on the worker count or GOMAXPROCS. Shard i draws every random choice
// of its nodes — in every round — from its own generator, the i-th child
// obtained by splitting the run's root generator sequentially at engine
// construction. During the act phase of a round the graph is read-only and
// each shard appends proposals to its private buffer; after all shards have
// acted, the buffers are committed in shard order through the batched
// graph.Undirected.AddEdgesGrouped / graph.Directed.AddArcsGrouped paths,
// whose accepted lists double as the round's delta stream. Every quantity a
// run reports is therefore a pure function of (graph, process, root
// generator) and is bit-identical for every Workers >= 1.
//
// Adaptive worker autoscaling. Because results depend only on the shard
// layout and streams — never on which goroutine drains which shard — the
// *number* of workers signaled per round is free to change between rounds
// without breaking the contract. Under WorkersAuto the engine starts a full
// pool (min(GOMAXPROCS, shards) goroutines) but begins each run signaling a
// single worker (running shards inline, with zero synchronization points);
// a per-round cost probe (act-phase wall time, proposals buffered, edges
// committed) feeds a hill-climbing tuner that grows or shrinks the active
// count toward the measured sweet spot. Early sparse rounds are usually too
// cheap to amortize the fan-out barrier, late dense rounds want every core;
// the tuner follows the workload between the two. Unsignaled goroutines
// stay parked on the start channel, so shrinking is free.
//
// Zero-alloc steady state. The engine, its shard buffers, the per-shard
// propose closures, and the per-round shard action are all allocated once
// per run; rounds only reslice warm buffers. Worker goroutines are started
// once per run and parked on a channel between rounds, so a round costs two
// synchronization points (fan-out send, WaitGroup barrier) when more than
// one worker is active — and none at all when one is.

// shardNodes is the number of nodes per shard. It is a fixed constant — not
// derived from Workers or GOMAXPROCS — because the shard layout is part of
// the determinism contract. 32 nodes keeps enough shards for load balance at
// the benchmark sizes (n=512 → 16 shards) while keeping the per-round
// dispatch overhead (one atomic fetch-add per shard) negligible.
const shardNodes = 32

// numShardsFor returns the shard count of the fixed layout over [0, n):
// ceil(n / shardNodes), with a single (possibly empty) shard for n < 1.
func numShardsFor(n int) int {
	s := (n + shardNodes - 1) / shardNodes
	if s < 1 {
		s = 1
	}
	return s
}

// clampWorkers maps a fixed worker request onto [1, shards]: counts below 1
// run inline, counts above the shard count cannot do more work than one
// goroutine per shard. Neither clamp affects results.
func clampWorkers(workers, shards int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	return workers
}

// autoStartActive is the active worker count an autoscaled engine begins
// with: inline rounds, letting the probe grow the count once fan-out
// demonstrably pays (early sparse rounds rarely amortize the barrier).
const autoStartActive = 1

// resolveSchedule maps a configured worker request onto the concrete
// schedule newEngine builds: the shard count of the fixed layout, the
// goroutine pool size (0 = every round runs inline), the initial active
// count, and whether a tuner adapts it between rounds. It is the single
// source of truth for both the engine itself and the prospective
// EngineStats a not-yet-dispatched session reports — keeping the two from
// drifting is the point.
func resolveSchedule(configured, n int) (shards, spawned, active int, auto bool) {
	shards = numShardsFor(n)
	w := configured
	auto = configured == WorkersAuto
	if auto {
		w = runtime.GOMAXPROCS(0)
	}
	w = clampWorkers(w, shards)
	if w > 1 {
		spawned = w
	}
	active = w
	if auto {
		if w > 1 {
			active = autoStartActive
		} else {
			auto = false // a one-worker pool has nothing to adapt
		}
	}
	return shards, spawned, active, auto
}

// prospectiveEngineStats is the schedule telemetry of a sharded session
// that has not dispatched its engine yet.
func prospectiveEngineStats(configured, n int) EngineStats {
	shards, spawned, active, auto := resolveSchedule(configured, n)
	return EngineStats{
		ConfiguredWorkers: configured,
		EffectiveWorkers:  active,
		SpawnedWorkers:    spawned,
		Shards:            shards,
		Autoscaled:        auto,
	}
}

// shard is the worker-private state of one contiguous node range; P is the
// substrate's proposal type (graph.Edge or graph.Arc, see pair).
type shard[P pair] struct {
	lo, hi int       // node range [lo, hi)
	r      *rng.Rand // private stream; i-th sequential split of the root
	props  []P
	// propose appends to props; it is built once at engine construction so
	// the act loop passes a preexisting func value instead of allocating a
	// closure per node (or per round).
	propose func(a, b int)
	// pad pushes sibling shards onto different cache lines: during the act
	// phase distinct workers append to adjacent shard structs concurrently.
	_ [64]byte
}

// engine is the reusable sharded act-phase engine under the round core. It
// is created once per session and reused across every round; between rounds
// (and between session steps) the workers stay parked on the start channel.
type engine[P pair] struct {
	shards []shard[P]
	// workers is the number of started worker goroutines (0 when every
	// round runs inline). active is how many of them the next act phase
	// will signal: fixed schedules pin it to the post-clamp worker count
	// for the whole run, autoscaled engines move it within [1, workers]
	// between rounds. Parked goroutines that are not signaled stay parked.
	workers int
	active  int

	// Autoscaling state (nil for fixed schedules). actNS is the cost
	// probe's wall-time sample of the last act phase.
	auto  *autoTuner
	actNS int64

	// Worker-pool state (unused when workers == 0). act is the per-round
	// shard action; it is stored once per run before the first round.
	act   func(s *shard[P])
	start chan struct{}
	next  atomic.Int64
	wg    sync.WaitGroup
}

// newEngine partitions [0, n) into shards, derives the per-shard streams by
// sequential splits of root, and starts the parked worker pool. Callers
// must stop() the engine.
//
// workers selects the schedule: a fixed count is clamped onto [1, shards]
// (see clampWorkers — the sessions reject junk before it gets here, so the
// clamp only ever adjusts honest requests, and the effective count is
// surfaced through Session.EngineStats); WorkersAuto builds a
// min(GOMAXPROCS, shards)-goroutine pool whose active share is autoscaled
// between rounds. Neither choice affects results, which depend only on the
// shard layout and streams (TestNewEngineLayout pins all of this).
//
// Degenerate inputs degrade cleanly rather than incidentally: a negative n
// panics (a graph can never report one, so it is always a caller bug), and
// n smaller than one shard — including n == 0 and n == 1 — yields a single
// shard covering exactly [0, n) (empty for n == 0), which acts inline with
// no worker goroutines.
func newEngine[P pair](n, workers int, root *rng.Rand) *engine[P] {
	if n < 0 {
		panic(fmt.Sprintf("sim: newEngine with negative node count %d", n))
	}
	numShards, spawned, active, auto := resolveSchedule(workers, n)
	e := &engine[P]{
		shards:  make([]shard[P], numShards),
		workers: spawned,
		active:  active,
	}
	streams := root.SplitN(numShards)
	for i := range e.shards {
		s := &e.shards[i]
		s.lo = i * shardNodes
		s.hi = s.lo + shardNodes
		if s.hi > n {
			s.hi = n
		}
		s.r = streams[i]
		s.propose = func(a, b int) { s.props = append(s.props, P{U: a, V: b}) }
	}
	if spawned > 0 {
		e.start = make(chan struct{})
		for w := 0; w < spawned; w++ {
			go e.worker()
		}
	}
	if auto {
		e.auto = newAutoTuner(spawned)
	}
	return e
}

// worker is the body of one parked worker goroutine: on each round signal it
// drains shards from the shared atomic cursor and reports to the barrier.
func (e *engine[P]) worker() {
	for range e.start {
		for {
			i := e.next.Add(1) - 1
			if i >= int64(len(e.shards)) {
				break
			}
			e.act(&e.shards[i])
		}
		e.wg.Done()
	}
}

// stop releases the worker goroutines. The engine must not be used after.
func (e *engine[P]) stop() {
	if e.start != nil {
		close(e.start)
	}
}

// actRound runs act(shard) for every shard. With one active worker the
// shards run inline in shard order; otherwise the parked workers drain them
// and actRound returns after the barrier. act must treat the graph as
// read-only and touch only its shard's state, so scheduling cannot
// influence results. Autoscaled engines also time the act phase here — the
// wall-time half of the cost probe tune consumes.
func (e *engine[P]) actRound(act func(s *shard[P])) {
	var t0 time.Time
	if e.auto != nil {
		t0 = time.Now()
	}
	if e.active == 1 {
		for i := range e.shards {
			act(&e.shards[i])
		}
	} else {
		e.act = act
		e.next.Store(0)
		e.wg.Add(e.active)
		for w := 0; w < e.active; w++ {
			e.start <- struct{}{}
		}
		e.wg.Wait()
	}
	if e.auto != nil {
		e.actNS = time.Since(t0).Nanoseconds()
	}
}

// tune completes the round's cost probe — act-phase wall time from
// actRound, plus the commit-side counts the session observed — and applies
// the autoscaler's worker-count decision for the next round. It must be
// called between rounds, on the committing goroutine; it is a no-op for
// fixed schedules. Changing active never changes results: the shard layout
// and streams are already fixed.
func (e *engine[P]) tune(proposals, committed int) {
	if e.auto == nil {
		return
	}
	span := e.shards[len(e.shards)-1].hi
	e.active = e.auto.observe(e.actNS, int64(span+proposals+committed))
}

// stats snapshots the engine's schedule telemetry (see EngineStats).
func (e *engine[P]) stats(configured int) EngineStats {
	st := EngineStats{
		ConfiguredWorkers: configured,
		EffectiveWorkers:  e.active,
		SpawnedWorkers:    e.workers,
		Shards:            len(e.shards),
	}
	if e.auto != nil {
		st.Autoscaled = true
		st.ScaleUps = e.auto.ups
		st.ScaleDowns = e.auto.downs
	}
	return st
}

// Autoscaler tuning knobs. A decision window of a few rounds smooths the
// probe's wall-time noise without lagging the workload; the tolerance band
// separates a clear signal from jitter; the idle budget bounds how long a
// parked tuner goes without probing for a drifted optimum.
const (
	tuneWindow     = 4
	tuneTolerance  = 1.02
	tuneProbeAfter = 8 // flat windows tolerated before a probe step
)

// autoTuner is the park-and-probe hill-climbing worker-count controller.
// Once per tuneWindow rounds it compares the window's cost — act-phase
// nanoseconds per unit of round work (nodes spanned + proposals buffered +
// edges committed) — against the previous window's, and moves only on a
// clear signal: clearly cheaper keeps climbing in the same direction,
// clearly more expensive reverses, and anything inside the tolerance band
// parks the count where it is. A parked tuner takes one probe step every
// tuneProbeAfter flat windows, so it keeps rediscovering the sweet spot as
// the workload drifts (rounds get busier as the graph densifies, then
// collapse in the dense phase; the per-work normalization absorbs most of
// the drift, the probes catch the rest). A memoryless always-move climber
// was tried first and cycled the whole [1, max] range whenever the cost
// curve went flat near the optimum — parking is what keeps misscheduled
// windows rare. Probing is cheap to undo: a move only changes how many
// parked goroutines the next fan-out signals.
type autoTuner struct {
	max    int // pool size; active stays within [1, max]
	active int
	dir    int // current climb direction, +1 or -1
	flat   int // consecutive windows without a clear signal

	rounds  int // rounds folded into the current window
	sumNS   int64
	sumWork int64

	lastCost   float64 // previous window's ns-per-work (0 = none yet)
	ups, downs int     // decision counts, for telemetry
}

func newAutoTuner(max int) *autoTuner {
	return &autoTuner{max: max, active: autoStartActive, dir: 1}
}

// observe folds one round's probe into the current window and returns the
// worker count for the next round, adjusting it at window boundaries.
func (t *autoTuner) observe(actNS, work int64) int {
	t.rounds++
	t.sumNS += actNS
	t.sumWork += work
	if t.rounds < tuneWindow {
		return t.active
	}
	sumNS, sumWork := t.sumNS, t.sumWork
	t.rounds, t.sumNS, t.sumWork = 0, 0, 0
	if sumNS <= 0 || sumWork <= 0 {
		// No usable signal (an idle window, or a clock too coarse to see
		// the act phase): hold position rather than walk on noise.
		return t.active
	}
	cost := float64(sumNS) / float64(sumWork)
	if t.lastCost == 0 {
		// First measurement: remember it and explore upward.
		t.lastCost = cost
		t.step()
		return t.active
	}
	switch {
	case cost > t.lastCost*tuneTolerance: // clearly worse: turn around
		t.dir = -t.dir
		t.flat = 0
		t.step()
	case cost*tuneTolerance < t.lastCost: // clearly better: keep climbing
		t.flat = 0
		t.step()
	default: // flat: park, but probe periodically
		t.flat++
		if t.flat >= tuneProbeAfter {
			t.flat = 0
			t.step()
		}
	}
	t.lastCost = cost
	return t.active
}

// step moves active one worker in the current direction, bouncing off the
// [1, max] bounds, and records the decision for telemetry.
func (t *autoTuner) step() {
	next := t.active + t.dir
	if next < 1 {
		next, t.dir = 1, 1
	}
	if next > t.max {
		next, t.dir = t.max, -1
	}
	switch {
	case next > t.active:
		t.ups++
	case next < t.active:
		t.downs++
	}
	t.active = next
}
