// Package graph provides the dynamic graph substrate for the gossip
// discovery processes of Haeupler et al. (SPAA 2012).
//
// Both discovery processes only ever *add* edges, and they drive the graph
// toward the complete graph (undirected) or the transitive closure
// (directed). The representation is tuned for the two hot operations in the
// inner simulation loop:
//
//   - uniform random neighbor sampling: O(1) via per-node adjacency lists;
//   - edge-membership tests: O(1) via per-node row sets.
//
// Row sets are pluggable (see Backend): the dense backend keeps an n-bit
// row per node in one flat bit matrix — the golden reference — while the
// sparse backend pools short adjacency lists in pages, reads short rows
// straight from them and keeps sorted rows that promote to bitsets past a
// density threshold, taking graphs to n = 100k–1M. All random sampling
// reads only the insertion-ordered adjacency lists, which every backend
// maintains identically, so simulation results are byte-identical across
// backends.
//
// Node identifiers are dense integers in [0, N()). Self-loops and parallel
// edges are never stored; AddEdge reports whether an edge was new, which is
// what round-commit deduplication and convergence accounting build on.
package graph

import (
	"fmt"
	"math/bits"

	"gossipdisc/internal/bitset"
	"gossipdisc/internal/rng"
)

// Edge is an undirected edge; for normalized edges U < V.
type Edge struct {
	U, V int
}

// Norm returns the edge with endpoints ordered so that U <= V.
func (e Edge) Norm() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Undirected is a simple undirected graph on nodes 0..n-1 supporting
// edge insertion only: the discovery processes never delete edges, and
// neither does churn — a departure is a membership change on the session
// (sim.Session.RemoveNode), which leaves the departed node's edges in the
// graph as stale entries in its neighbors' lists.
type Undirected struct {
	n    int
	adj  *lists   // adjacency lists in insertion order
	rows rowStore // per-node row sets for O(1) membership + complement views
	m    int      // number of edges
}

// NewUndirected returns an empty undirected graph on n nodes, on the dense
// golden-reference backend.
func NewUndirected(n int) *Undirected {
	return NewUndirectedOn(n, BackendDense)
}

// NewUndirectedOn returns an empty undirected graph on n nodes with the
// given row-storage backend. BackendAuto resolves to dense or sparse at
// construction time based on n. n may not exceed math.MaxInt32.
func NewUndirectedOn(n int, b Backend) *Undirected {
	adj, rows := newLists(n, b)
	return &Undirected{n: n, adj: adj, rows: rows}
}

// Backend returns the concrete row-storage backend of the graph (never
// BackendAuto — auto resolves at construction).
func (g *Undirected) Backend() Backend { return g.rows.backend() }

// OnBackend returns a copy of the graph on the given backend, preserving
// the adjacency lists verbatim — including insertion order, so simulations
// resumed on the copy draw the same samples as on the original.
func (g *Undirected) OnBackend(b Backend) *Undirected {
	c := NewUndirectedOn(g.n, b)
	c.m = g.m
	g.adj.copyTo(g.n, c.adj, c.rows)
	return c
}

// N returns the number of nodes.
func (g *Undirected) N() int { return g.n }

// M returns the number of edges.
func (g *Undirected) M() int { return g.m }

func (g *Undirected) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v} and reports whether it was new.
// Self-loops are ignored (returns false), matching the paper's processes
// where a node introducing a neighbor to itself creates nothing.
func (g *Undirected) AddEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	if u == v || !g.rows.insert(u, v) {
		return false
	}
	// By symmetry u is known absent from row v.
	if sr, ok := g.rows.(*sparseRows); ok {
		sr.insertAbsent(v, u)
	} else {
		g.rows.insert(v, u)
	}
	g.adj.add(u, int32(v))
	g.adj.add(v, int32(u))
	g.m++
	return true
}

// AddEdges inserts a batch of edges and returns the number that were new.
// Self-loops and already-present edges (including duplicates earlier in the
// same batch) are skipped, exactly as a sequence of AddEdge calls would
// skip them. It is the count-only convenience over AddEdgesGrouped — the
// engines' commit path — and delegates to it so the two can never diverge.
func (g *Undirected) AddEdges(edges []Edge) int {
	return len(g.AddEdgesGrouped(edges, nil))
}

// AddEdgesGrouped inserts a batch of edges exactly like AddEdges — same
// final graph, same adjacency insertion order, same duplicate semantics —
// but appends every newly inserted edge (normalized U < V) to accepted and
// returns the grown slice. This is the round engine's commit path, and the
// accepted list is the round's edge delta, emitted in deterministic batch
// (commit) order.
//
// On the dense backend each proposal is one test on the flat bit matrix —
// slab[u*stride+v>>6], a single dependent load — and only an accepted edge
// stores: its bit in row u, its mirror in row v. Near convergence almost
// every proposal is a duplicate (94 % on the 2048-cycle run to K_n), and a
// duplicate now leaves its cache line clean where the fused OR it replaces
// wrote it back unchanged. A stable counting-sort row grouping of the
// batch was benchmarked here and lost 2–4× across every regime — gossip
// proposals have no row locality, so sorting costs more than the matrix
// accesses it saves (see DESIGN.md "Word-level batched commits"). The
// sparse backend goes through its store's fused insert; accepted lists and
// final state are identical either way.
//
// Pass a reused buffer (resliced to [:0]) to keep the commit
// allocation-free in steady state. accepted may be edges[:0]: each edge is
// read before any append can reach its slot, so the batch is filtered in
// place — the round engines' one round buffer.
func (g *Undirected) AddEdgesGrouped(edges []Edge, accepted []Edge) []Edge {
	n := g.n
	added := 0
	if dr, ok := g.rows.(*denseRows); ok {
		// Dense fast path: test-then-set straight on the slab.
		slab, stride, adj := dr.slab, dr.stride, g.adj.long
		for _, e := range edges {
			u, v := e.U, e.V
			if uint(u) >= uint(n) || uint(v) >= uint(n) {
				panic(fmt.Sprintf("graph: edge {%d, %d} out of range [0,%d)", u, v, n))
			}
			if u == v {
				continue
			}
			wi, bit := u*stride+v>>6, uint64(1)<<(uint(v)&63)
			if slab[wi]&bit != 0 {
				continue // already present, or a duplicate earlier in the batch
			}
			slab[wi] |= bit
			slab[v*stride+u>>6] |= 1 << (uint(u) & 63)
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
			accepted = append(accepted, e.Norm())
			added++
		}
		g.m += added
		return accepted
	}
	// The sparse store, devirtualized like the dense one: by symmetry the
	// mirror half of an accepted insert is known absent from its row.
	sr := g.rows.(*sparseRows)
	for _, e := range edges {
		u, v := e.U, e.V
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			panic(fmt.Sprintf("graph: edge {%d, %d} out of range [0,%d)", u, v, n))
		}
		if u == v {
			continue
		}
		if !sr.insert(u, v) {
			continue
		}
		sr.insertAbsent(v, u)
		g.adj.add(u, int32(v))
		g.adj.add(v, int32(u))
		accepted = append(accepted, e.Norm())
		added++
	}
	g.m += added
	return accepted
}

// HasEdge reports whether {u, v} is present. HasEdge(u, u) is always false.
func (g *Undirected) HasEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	return g.rows.test(u, v)
}

// Degree returns the number of neighbors of u.
func (g *Undirected) Degree(u int) int {
	g.checkNode(u)
	return g.adj.size(u)
}

// Neighbor returns the i-th neighbor of u in insertion order.
func (g *Undirected) Neighbor(u, i int) int {
	g.checkNode(u)
	return int(g.adj.list(u)[i])
}

// Freeze holds the graph's sampling reads — RandomNeighbor,
// RandomNeighborPair, RandomNeighborPairs and TwoHopWalks — at the graph as
// it is now until Thaw: each draw is bounded by a neighbor list's length at
// Freeze, and a list keeps its first entries in place as edges are added,
// so the reads draw and return exactly what they would have at Freeze.
// Every other read and every insert sees the live graph, and Clone and
// OnBackend copy it unfrozen. A synchronous round on the sparse backend
// uses it to commit its proposals a block of nodes at a time while every
// node still samples the round-start graph. Freeze takes O(n) time; its 4n
// bytes are allocated by the first call and kept.
func (g *Undirected) Freeze() { g.adj.freeze(g.n) }

// Thaw ends a Freeze: the sampling reads see the live graph again.
func (g *Undirected) Thaw() { g.adj.frozen = g.adj.frozen[:0] }

// RandomNeighbor returns a uniformly random neighbor of u, or -1 if u is
// isolated.
func (g *Undirected) RandomNeighbor(u int, r *rng.Rand) int {
	g.checkNode(u)
	list := g.adj.drawn(u)
	if len(list) == 0 {
		return -1
	}
	return int(list[r.Intn(len(list))])
}

// RandomNeighborPair returns two independent uniform samples from N(u),
// with replacement — the triangulation process's choice of (v, w).
// Both are -1 if u is isolated.
func (g *Undirected) RandomNeighborPair(u int, r *rng.Rand) (int, int) {
	g.checkNode(u)
	list := g.adj.drawn(u)
	if len(list) == 0 {
		return -1, -1
	}
	i, j := r.Sample2(len(list))
	return int(list[i]), int(list[j])
}

// RandomNeighborPairs is RandomNeighborPair for the block of consecutive
// nodes lo, lo+1, …, lo+len(vs)-1 on the one stream r: node lo+k's pair
// lands in vs[k], ws[k] (both -1 if it is isolated). alive, when not nil,
// is a liveness mask covering the graph: a node with alive[u] false makes
// no draw and gets -1s, as if isolated; nil means every node draws.
// len(ws) must be at least len(vs). The values, and the state r is left
// in, are exactly those of calling RandomNeighborPair on each (live) node
// in increasing order (TestRandomNeighborPairsMatchesPair); what differs is
// the order of the memory reads. A pair draw needs only the length of a
// node's list, and the lengths of consecutive nodes are consecutive
// memory — so the first pass makes every node's draw, in node order,
// without touching a list, and only the second reads the 2·len(vs) drawn
// entries, back to back with nothing between them, so their cache misses
// overlap instead of each waiting behind the next node's draw.
func (g *Undirected) RandomNeighborPairs(lo int, alive []bool, r *rng.Rand, vs, ws []int32) {
	if len(ws) < len(vs) {
		panic(fmt.Sprintf("graph: RandomNeighborPairs buffer of %d for a block of %d nodes", len(ws), len(vs)))
	}
	if len(vs) == 0 {
		return
	}
	g.checkNode(lo)
	g.checkNode(lo + len(vs) - 1)
	g.checkMask(alive)
	adj := g.adj
	ws = ws[:len(vs)]
	adj.sizes(lo, vs)
	if alive != nil { // a dead node makes no draw, as if isolated
		for k, live := range alive[lo : lo+len(vs)] {
			if !live {
				vs[k] = 0
			}
		}
	}
	for k, d := range vs {
		if d == 0 {
			vs[k], ws[k] = -1, -1
		} else {
			// A list holds distinct int32 nodes, so its indices fit too.
			i, j := r.Sample2(int(d))
			vs[k], ws[k] = int32(i), int32(j)
		}
	}
	if adj.spans == nil { // Go slices: range over them, as a loop of list(u) is slower
		for k, list := range adj.long[lo : lo+len(vs)] {
			if i := vs[k]; i >= 0 {
				vs[k], ws[k] = list[i], list[ws[k]]
			}
		}
		return
	}
	for k := range vs {
		if i := vs[k]; i >= 0 {
			list := adj.list(lo + k)
			vs[k], ws[k] = list[i], list[ws[k]]
		}
	}
}

// TwoHopWalks takes the pull process's two-hop walk from each of the
// consecutive nodes lo, lo+1, …, lo+len(ws)-1 on the one stream r: node
// lo+k's walk u → v → w leaves w in ws[k], or -1 if u is isolated (no draw
// is made). alive, when not nil, is a liveness mask covering the graph: a
// dead u makes no draw and a dead relay v no second draw, both leaving -1;
// nil means every node walks and every relay answers. The values, and the
// state r is left in, are exactly those of RandomNeighbor(u, r) followed —
// when it found a (live) v — by RandomNeighbor(v, r), node after (live)
// node (TestTwoHopWalksMatchesRandomNeighbor). Unlike RandomNeighborPairs
// this is one loop, not two passes: the second draw's bound is the length
// of the list the first draw picks, so no draw can be made ahead of the
// read before it. What the block saves is the calls — the per-node form
// goes through eight to make a proposal, this through the two draws.
func (g *Undirected) TwoHopWalks(lo int, alive []bool, r *rng.Rand, ws []int32) {
	if len(ws) == 0 {
		return
	}
	g.checkNode(lo)
	g.checkNode(lo + len(ws) - 1)
	g.checkMask(alive)
	twoHopWalks(g.adj, lo, alive, r, ws)
}

// ActDraw is an act of node U predicted to draw the raw words X and Y.
type ActDraw struct {
	U    int
	X, Y uint64
}

// TouchActs reads the memory the acts will read, in stages over blocks of
// acts so that their cache misses overlap, and returns what it read folded
// together for the caller to discard. A push pair draws v, w from list U
// at X's and Y's Lemire indices, a pull walk (walk) v from list U at X and
// w from list v at Y, proposing {U, w}; the commit scans a proposal's first
// end's list and appends to its second's. Indices skip Lemire's rejection,
// so nothing may depend on what this reads. It writes and allocates nothing.
func (g *Undirected) TouchActs(acts []ActDraw, walk bool) (sum int32) {
	index := func(x uint64, d int) int { hi, _ := bits.Mul64(x, uint64(d)); return int(hi) }
	var ends [32][2]int32 // per act of a block: the list its commit scans, the one it appends to
	for len(acts) != 0 {
		block := acts[:min(len(acts), len(ends))]
		acts = acts[len(block):]
		for i, a := range block {
			g.checkNode(a.U)
			ends[i] = [2]int32{-1, -1}
			if list := g.adj.list(a.U); len(list) != 0 {
				ends[i] = [2]int32{list[index(a.X, len(list))], list[index(a.Y, len(list))]}
			}
		}
		for i, a := range block {
			if v := ends[i][0]; walk && v >= 0 {
				next := g.adj.list(int(v)) // not empty: it holds U
				ends[i] = [2]int32{int32(a.U), next[index(a.Y, len(next))]}
			}
		}
		for _, e := range ends[:len(block)] {
			if e[0] >= 0 { // both ends have neighbors, so both lists are not empty
				scan, tail := g.adj.list(int(e[0])), g.adj.list(int(e[1]))
				for i := 0; i < min(len(scan), shortRow); i += 16 { // one entry per cache line
					sum ^= scan[i]
				}
				sum ^= tail[len(tail)-1]
			}
		}
	}
	return sum
}

// checkMask panics unless alive is nil or covers every node.
func (g *Undirected) checkMask(alive []bool) {
	if alive != nil && len(alive) < g.n {
		panic(fmt.Sprintf("graph: liveness mask of %d for %d nodes", len(alive), g.n))
	}
}

// twoHopWalks is the walk loop of both TwoHopWalks (alive nil for
// Directed), whose callers have checked lo, lo+len(ws)-1 and alive. An
// empty first list makes no draw, an empty second one (a directed sink as
// middle hop) no second draw. Unmasked, unfrozen walks over Go-slice lists
// have a loop of their own, as a loop of list(u) or a mask test there slows
// the dense workloads (DESIGN.md "Masked blocks").
func twoHopWalks(adj *lists, lo int, alive []bool, r *rng.Rand, ws []int32) {
	if lists := adj.long; adj.spans == nil && alive == nil && len(adj.frozen) == 0 {
		for k, list := range lists[lo : lo+len(ws)] {
			w := int32(-1)
			if d := len(list); d != 0 {
				if next := lists[list[r.Intn(d)]]; len(next) != 0 {
					w = next[r.Intn(len(next))]
				}
			}
			ws[k] = w
		}
		return
	}
	for k := range ws {
		w := int32(-1)
		if list := adj.drawn(lo + k); len(list) != 0 && (alive == nil || alive[lo+k]) {
			if v := list[r.Intn(len(list))]; alive == nil || alive[v] {
				if next := adj.drawn(int(v)); len(next) != 0 {
					w = next[r.Intn(len(next))]
				}
			}
		}
		ws[k] = w
	}
}

// Neighbors appends the neighbors of u to dst and returns the result.
// Pass nil to allocate. The returned order is insertion order.
func (g *Undirected) Neighbors(u int, dst []int) []int {
	g.checkNode(u)
	for _, v := range g.adj.list(u) {
		dst = append(dst, int(v))
	}
	return dst
}

// NeighborRow returns the bitset row of u's neighbors. Callers must treat
// it as read-only: on the dense backend it is the live row; on the sparse
// backend it may be a freshly materialized snapshot (O(n/64) space) that
// does not track later mutations.
func (g *Undirected) NeighborRow(u int) *bitset.Set {
	g.checkNode(u)
	return g.rows.row(u)
}

// Edges returns all edges with U < V, grouped by the smaller endpoint in
// increasing neighbor order.
func (g *Undirected) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		g.rows.forEach(u, func(v int) {
			if u < v {
				out = append(out, Edge{u, v})
			}
		})
	}
	return out
}

// MinDegree returns the minimum degree δ of the graph, or 0 for n == 0.
func (g *Undirected) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.n
	for u := 0; u < g.n; u++ {
		if d := g.adj.size(u); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum degree of the graph.
func (g *Undirected) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.adj.size(u); d > max {
			max = d
		}
	}
	return max
}

// IsComplete reports whether every pair of distinct nodes is adjacent.
func (g *Undirected) IsComplete() bool {
	return g.m == g.n*(g.n-1)/2
}

// MissingEdges returns the number of node pairs not yet adjacent.
func (g *Undirected) MissingEdges() int {
	return g.n*(g.n-1)/2 - g.m
}

// MissingDegree returns the number of nodes u is not yet adjacent to
// (excluding u itself) in O(1). The counter is maintained by the commit
// paths for free: every insertion grows u's adjacency list, so the missing
// count is n-1-Degree(u) at all times. This is the per-node complement view
// the dense-phase engine samples from, and it gives Done predicates an O(1)
// "how far is u from knowing everyone" read.
func (g *Undirected) MissingDegree(u int) int {
	g.checkNode(u)
	return g.n - 1 - g.adj.size(u)
}

// MissingNeighbor returns the k-th (0-based, increasing node order)
// non-neighbor of u, excluding u itself. It panics if k is out of
// [0, MissingDegree(u)). Cost is O(n/64) on dense or promoted rows — one
// rank plus one select over the inverted row — O(log d) on sorted sparse
// rows, and one sort of the d < 128 entries on sparse rows still short
// enough to live in the neighbor list.
func (g *Undirected) MissingNeighbor(u, k int) int {
	g.checkNode(u)
	if k < 0 || k >= g.MissingDegree(u) {
		panic(fmt.Sprintf("graph: missing-neighbor index %d out of range [0,%d) for node %d",
			k, g.MissingDegree(u), u))
	}
	// The values absent from u's row are its non-neighbors plus u itself
	// (no self-loop is ever stored). Absent values below u are unaffected;
	// at u and beyond, skip u's own absent slot by shifting the select
	// index once.
	clearBelowU := u - g.rows.rank(u, u)
	if k >= clearBelowU {
		k++
	}
	return g.rows.selectClear(u, k)
}

// Clone returns a deep copy of the graph on the same backend.
func (g *Undirected) Clone() *Undirected {
	adj := g.adj.clone()
	return &Undirected{n: g.n, adj: adj, rows: g.rows.clone(adj), m: g.m}
}

// Equal reports whether g and h have identical node and edge sets. The
// comparison is backend-agnostic: a dense graph and a sparse graph holding
// the same edges are equal.
func (g *Undirected) Equal(h *Undirected) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if g.adj.size(u) != h.adj.size(u) {
			return false
		}
		// Same degree and g's row ⊆ h's row ⇒ identical rows.
		for _, v := range g.adj.list(u) {
			if !h.rows.test(u, int(v)) {
				return false
			}
		}
	}
	return true
}

// DegreeHistogram returns hist where hist[d] is the number of nodes with
// degree d; the slice has length MaxDegree()+1 (length 1 when n == 0).
func (g *Undirected) DegreeHistogram() []int {
	hist := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.n; u++ {
		hist[g.adj.size(u)]++
	}
	return hist
}

// InducedSubgraph returns the subgraph induced by nodes (which must be
// distinct and valid) relabeled to 0..len(nodes)-1, preserving node order
// and the backend.
func (g *Undirected) InducedSubgraph(nodes []int) *Undirected {
	idx := make(map[int]int, len(nodes))
	for i, u := range nodes {
		g.checkNode(u)
		if _, dup := idx[u]; dup {
			panic(fmt.Sprintf("graph: duplicate node %d in induced subgraph", u))
		}
		idx[u] = i
	}
	s := NewUndirectedOn(len(nodes), g.Backend())
	for i, u := range nodes {
		for _, v32 := range g.adj.list(u) {
			if j, ok := idx[int(v32)]; ok && i < j {
				s.AddEdge(i, j)
			}
		}
	}
	return s
}

// String renders a compact description such as "U(n=5, m=4)".
func (g *Undirected) String() string {
	return fmt.Sprintf("U(n=%d, m=%d)", g.n, g.m)
}

// CheckInvariants validates internal consistency (adjacency lists vs rows,
// symmetry, no self-loops, edge count). It is used by tests and is cheap
// enough to run after property-based mutations; it panics on violation.
func (g *Undirected) CheckInvariants() {
	total := 0
	for u := 0; u < g.n; u++ {
		if g.rows.test(u, u) {
			panic(fmt.Sprintf("graph: self-loop at %d", u))
		}
		if g.adj.size(u) != g.rows.count(u) {
			panic(fmt.Sprintf("graph: node %d adj list %d != row %d",
				u, g.adj.size(u), g.rows.count(u)))
		}
		for _, v := range g.adj.list(u) {
			if !g.rows.test(int(v), u) {
				panic(fmt.Sprintf("graph: asymmetric edge %d-%d", u, v))
			}
		}
		total += g.adj.size(u)
	}
	if total != 2*g.m {
		panic(fmt.Sprintf("graph: degree sum %d != 2m %d", total, 2*g.m))
	}
}
