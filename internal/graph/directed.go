package graph

import (
	"fmt"

	"gossipdisc/internal/bitset"
	"gossipdisc/internal/rng"
)

// Arc is a directed edge from U to V.
type Arc struct {
	U, V int
}

// Directed is a simple directed graph on nodes 0..n-1 supporting arc
// insertion. As with Undirected, the discovery processes only add arcs.
type Directed struct {
	n    int
	out  *lists   // out-adjacency lists in insertion order
	rows rowStore // row u = out-neighbor set of u
	in   []int    // in-degrees (maintained for metrics)
	m    int      // number of arcs
}

// NewDirected returns an empty directed graph on n nodes, on the dense
// golden-reference backend.
func NewDirected(n int) *Directed {
	return NewDirectedOn(n, BackendDense)
}

// NewDirectedOn returns an empty directed graph on n nodes with the given
// row-storage backend. BackendAuto resolves to dense or sparse at
// construction time based on n. n may not exceed math.MaxInt32.
func NewDirectedOn(n int, b Backend) *Directed {
	out, rows := newLists(n, b)
	return &Directed{n: n, out: out, rows: rows, in: make([]int, n)}
}

// Backend returns the concrete row-storage backend of the graph (never
// BackendAuto — auto resolves at construction).
func (g *Directed) Backend() Backend { return g.rows.backend() }

// OnBackend returns a copy of the graph on the given backend, preserving
// the out-lists verbatim — including insertion order, so simulations
// resumed on the copy draw the same samples as on the original.
func (g *Directed) OnBackend(b Backend) *Directed {
	c := NewDirectedOn(g.n, b)
	c.m = g.m
	copy(c.in, g.in)
	g.out.copyTo(g.n, c.out, c.rows)
	return c
}

// N returns the number of nodes.
func (g *Directed) N() int { return g.n }

// M returns the number of arcs.
func (g *Directed) M() int { return g.m }

func (g *Directed) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// AddArc inserts the arc (u → v) and reports whether it was new.
// Self-arcs are ignored.
func (g *Directed) AddArc(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	if u == v || !g.rows.insert(u, v) {
		return false
	}
	g.out.add(u, int32(v))
	g.in[v]++
	g.m++
	return true
}

// AddArcs inserts a batch of arcs, appending each newly inserted arc to
// accepted, and returns the updated accepted slice. Self-arcs and
// already-present arcs (including duplicates earlier in the same batch) are
// skipped, exactly as a sequence of AddArc calls would skip them. It
// delegates to AddArcsGrouped — the engines' commit path — so the two can
// never diverge.
func (g *Directed) AddArcs(arcs []Arc, accepted []Arc) []Arc {
	return g.AddArcsGrouped(arcs, accepted)
}

// AddArcsGrouped inserts a batch of arcs exactly like AddArcs — same final
// graph, same out-list insertion order, same duplicate semantics — but
// appends every newly inserted arc to accepted, returning the grown slice
// in deterministic batch (commit) order; this list is the round's arc
// delta. On the dense backend each proposal is one test of its tail row's
// bit on the flat bit matrix, and only an accepted arc stores; the sparse
// backend goes through its store's fused insert with identical accepted
// lists and final state. Pass a reused buffer (resliced to [:0]) to keep
// the commit allocation-free in steady state; accepted may be arcs[:0],
// filtering the batch in place as AddEdgesGrouped does. See AddEdgesGrouped
// for why batch order beats counting-sort row grouping here.
func (g *Directed) AddArcsGrouped(arcs []Arc, accepted []Arc) []Arc {
	n := g.n
	added := 0
	if dr, ok := g.rows.(*denseRows); ok {
		// Dense fast path: test-then-set straight on the slab.
		slab, stride, out := dr.slab, dr.stride, g.out.long
		for _, a := range arcs {
			u, v := a.U, a.V
			if uint(u) >= uint(n) || uint(v) >= uint(n) {
				panic(fmt.Sprintf("graph: arc (%d, %d) out of range [0,%d)", u, v, n))
			}
			if u == v {
				continue
			}
			wi, bit := u*stride+v>>6, uint64(1)<<(uint(v)&63)
			if slab[wi]&bit != 0 {
				continue
			}
			slab[wi] |= bit
			out[u] = append(out[u], int32(v))
			g.in[v]++
			accepted = append(accepted, a)
			added++
		}
		g.m += added
		return accepted
	}
	for _, a := range arcs {
		u, v := a.U, a.V
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			panic(fmt.Sprintf("graph: arc (%d, %d) out of range [0,%d)", u, v, n))
		}
		if u == v {
			continue
		}
		if !g.rows.insert(u, v) {
			continue
		}
		g.out.add(u, int32(v))
		g.in[v]++
		accepted = append(accepted, a)
		added++
	}
	g.m += added
	return accepted
}

// HasArc reports whether the arc (u → v) is present.
func (g *Directed) HasArc(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	return g.rows.test(u, v)
}

// OutDegree returns the number of out-neighbors of u.
func (g *Directed) OutDegree(u int) int {
	g.checkNode(u)
	return g.out.size(u)
}

// InDegree returns the number of in-neighbors of u.
func (g *Directed) InDegree(u int) int {
	g.checkNode(u)
	return g.in[u]
}

// RowDiffCount returns |target &^ out-row(u)|: how many of target's bits u
// has no arc toward yet. target must have capacity N(). This is the
// directed dense phase's per-node missing-closure counter, computed without
// materializing the row on any backend.
func (g *Directed) RowDiffCount(u int, target *bitset.Set) int {
	g.checkNode(u)
	return g.rows.diffCount(u, target)
}

// RowSelectDiff returns the k-th (0-based, increasing node order) bit of
// target &^ out-row(u), or -1 if the difference has fewer than k+1 bits.
// target must have capacity N(). This is the directed dense phase's
// sampler: the k-th closure arc of a row still missing from the graph.
func (g *Directed) RowSelectDiff(u int, target *bitset.Set, k int) int {
	g.checkNode(u)
	return g.rows.selectDiff(u, target, k)
}

// Freeze holds the sampling reads, RandomOutNeighbor and TwoHopWalks, at
// the graph as it is now until Thaw, as Undirected.Freeze does.
func (g *Directed) Freeze() { g.out.freeze(g.n) }

// Thaw ends a Freeze: the sampling reads see the live graph again.
func (g *Directed) Thaw() { g.out.frozen = g.out.frozen[:0] }

// RandomOutNeighbor returns a uniformly random out-neighbor of u, or -1 if u
// has no out-neighbors.
func (g *Directed) RandomOutNeighbor(u int, r *rng.Rand) int {
	g.checkNode(u)
	list := g.out.drawn(u)
	if len(list) == 0 {
		return -1
	}
	return int(list[r.Intn(len(list))])
}

// TwoHopWalks takes the directed two-hop walk from each of the consecutive
// nodes lo, lo+1, …, lo+len(ws)-1 on the one stream r: node lo+k's walk
// u → v → w leaves w in ws[k], or -1 if u has no out-neighbor (no draw is
// made) or v has none (no second draw). The values, and the state r is left
// in, are exactly those of RandomOutNeighbor(u, r) followed — when it found
// a v — by RandomOutNeighbor(v, r), node after node
// (TestTwoHopWalksMatchesRandomNeighbor); see Undirected.TwoHopWalks for why
// this is one fused loop.
func (g *Directed) TwoHopWalks(lo int, r *rng.Rand, ws []int32) {
	if len(ws) == 0 {
		return
	}
	g.checkNode(lo)
	g.checkNode(lo + len(ws) - 1)
	twoHopWalks(g.out, lo, nil, r, ws)
}

// OutNeighbors appends the out-neighbors of u to dst and returns the result.
func (g *Directed) OutNeighbors(u int, dst []int) []int {
	g.checkNode(u)
	for _, v := range g.out.list(u) {
		dst = append(dst, int(v))
	}
	return dst
}

// OutRow returns the bitset row of u's out-neighbors. Callers must treat it
// as read-only: on the dense backend it is the live row; on the sparse
// backend it may be a freshly materialized snapshot (O(n/64) space) that
// does not track later mutations. For diff queries against a target row,
// prefer RowDiffCount/RowSelectDiff, which never materialize.
func (g *Directed) OutRow(u int) *bitset.Set {
	g.checkNode(u)
	return g.rows.row(u)
}

// Arcs returns all arcs ordered by tail then head.
func (g *Directed) Arcs() []Arc {
	out := make([]Arc, 0, g.m)
	for u := 0; u < g.n; u++ {
		g.rows.forEach(u, func(v int) {
			out = append(out, Arc{u, v})
		})
	}
	return out
}

// Clone returns a deep copy of the graph on the same backend.
func (g *Directed) Clone() *Directed {
	out := g.out.clone()
	return &Directed{n: g.n, out: out, rows: g.rows.clone(out), in: append([]int(nil), g.in...), m: g.m}
}

// Equal reports whether g and h have identical node and arc sets. The
// comparison is backend-agnostic.
func (g *Directed) Equal(h *Directed) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if g.out.size(u) != h.out.size(u) {
			return false
		}
		for _, v := range g.out.list(u) {
			if !h.rows.test(u, int(v)) {
				return false
			}
		}
	}
	return true
}

// Underlying returns the undirected graph obtained by forgetting arc
// directions, on the same backend.
func (g *Directed) Underlying() *Undirected {
	u := NewUndirectedOn(g.n, g.Backend())
	for a := 0; a < g.n; a++ {
		g.rows.forEach(a, func(b int) {
			u.AddEdge(a, b)
		})
	}
	return u
}

// String renders a compact description such as "D(n=5, m=7)".
func (g *Directed) String() string {
	return fmt.Sprintf("D(n=%d, m=%d)", g.n, g.m)
}

// CheckInvariants validates internal consistency; it panics on violation.
func (g *Directed) CheckInvariants() {
	total := 0
	inCount := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		if g.rows.test(u, u) {
			panic(fmt.Sprintf("graph: self-arc at %d", u))
		}
		if g.out.size(u) != g.rows.count(u) {
			panic(fmt.Sprintf("graph: node %d out list %d != row %d",
				u, g.out.size(u), g.rows.count(u)))
		}
		for _, v := range g.out.list(u) {
			inCount[int(v)]++
		}
		total += g.out.size(u)
	}
	for v := 0; v < g.n; v++ {
		if inCount[v] != g.in[v] {
			panic(fmt.Sprintf("graph: node %d in-degree cache %d != actual %d",
				v, g.in[v], inCount[v]))
		}
	}
	if total != g.m {
		panic(fmt.Sprintf("graph: out-degree sum %d != m %d", total, g.m))
	}
}
