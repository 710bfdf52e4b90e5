package sim

import (
	"fmt"

	"gossipdisc/internal/rng"
)

// This file holds the shard layout of the sharded round engine
// (Workers >= 1). The round core (round.go) builds the layout lazily at a
// session's first step and acts every shard inline, in shard order.
//
// Determinism contract. The node set [0, n) is partitioned into fixed
// contiguous shards of shardNodes nodes; the shard layout depends only on n,
// never on the worker count or GOMAXPROCS. Shard i draws every random choice
// of its nodes — in every round — from its own generator, the i-th child
// obtained by splitting the run's root generator sequentially at engine
// construction. During the act phase of a round the graph is read-only and
// the shards, in shard order, append their proposals to the round's buffer,
// which the batched graph.Undirected.AddEdgesGrouped /
// graph.Directed.AddArcsGrouped path then commits once, in node order,
// keeping the accepted proposals as the round's delta stream. Every quantity
// a run reports is therefore a pure function of (graph, process, root
// generator) and is bit-identical for every Workers >= 1.
//
// Zero-alloc steady state. The shards are allocated once per run; rounds
// only reslice the warm round buffer.

// shardNodes is the number of nodes per shard. It is a fixed constant — not
// derived from Workers or GOMAXPROCS — because the shard layout is part of
// the determinism contract.
const shardNodes = 32

// shard is one contiguous node range and its stream.
type shard struct {
	lo, hi int       // node range [lo, hi)
	r      *rng.Rand // private stream; i-th sequential split of the root
}

// newShards partitions [0, n) into the fixed layout, ceil(n / shardNodes)
// shards, and derives the per-shard streams by sequential splits of root.
//
// Degenerate inputs degrade cleanly rather than incidentally: a negative n
// panics (a graph can never report one, so it is always a caller bug), and
// n smaller than one shard — including n == 0 and n == 1 — yields a single
// shard covering exactly [0, n) (empty for n == 0). TestNewEngineLayout
// pins all of this.
func newShards(n int, root *rng.Rand) []shard {
	if n < 0 {
		panic(fmt.Sprintf("sim: newShards with negative node count %d", n))
	}
	shards := make([]shard, max(1, (n+shardNodes-1)/shardNodes))
	streams := root.SplitN(len(shards))
	for i := range shards {
		s := &shards[i]
		s.lo = i * shardNodes
		s.hi = min(s.lo+shardNodes, n)
		s.r = streams[i]
	}
	return shards
}
