package graph

import (
	"fmt"

	"gossipdisc/internal/bitset"
)

// Backend selects the row-storage strategy behind a graph. All graph
// sampling (RandomNeighbor, RandomNeighborPair, RandomOutNeighbor) draws
// from the insertion-ordered adjacency lists, which every backend maintains
// identically — so simulation results are byte-identical across backends;
// only memory footprint and per-operation cost differ.
//
// The zero value is BackendDense, the golden reference.
type Backend uint8

const (
	// BackendDense stores one n-bit row per node in a single flat bit
	// matrix: O(n²) bits total, O(1) membership, O(n/64) complement
	// rank/select. The golden reference backend; right up to a few thousand
	// nodes.
	BackendDense Backend = iota

	// BackendSparse stores nothing for a row of fewer than 128 entries —
	// the row is the graph's own neighbor list, scanned for membership,
	// and such a list is a block of pooled pages, not a Go slice — then a
	// sorted copy (4 bytes/entry), and promotes to a bitset row once
	// a row holds >= max(16, n/32) entries — the point where a sorted
	// row's memory crosses the n-bit row's. Complement views flip meaning
	// at the same threshold: promoted rows use the dense inverted-bitset
	// primitives, unpromoted rows compute rank/select over their sorted
	// entries directly, so the dense-phase engine keeps working. O(m)
	// memory overall; the only backend that fits n = 100k–1M.
	BackendSparse

	// BackendAuto picks dense for n <= AutoDenseLimit and sparse above, at
	// construction time.
	BackendAuto
)

// AutoDenseLimit is the node count above which BackendAuto switches from
// dense to sparse rows. At the limit the dense row matrix costs
// AutoDenseLimit²/8 bytes (8 MiB at 8192) — trivially cheap; beyond it the
// quadratic bit matrix starts to dominate every other allocation.
const AutoDenseLimit = 8192

// String returns the flag spelling of the backend: "dense", "sparse", or
// "auto".
func (b Backend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendSparse:
		return "sparse"
	case BackendAuto:
		return "auto"
	default:
		return fmt.Sprintf("Backend(%d)", uint8(b))
	}
}

// ParseBackend parses a -backend flag value ("dense", "sparse", or "auto").
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "dense":
		return BackendDense, nil
	case "sparse":
		return BackendSparse, nil
	case "auto":
		return BackendAuto, nil
	default:
		return BackendDense, fmt.Errorf("graph: unknown backend %q (want dense, sparse, or auto)", s)
	}
}

// resolve maps BackendAuto to a concrete backend for an n-node graph.
func (b Backend) resolve(n int) Backend {
	if b == BackendAuto {
		if n <= AutoDenseLimit {
			return BackendDense
		}
		return BackendSparse
	}
	return b
}

// rowStore is the storage contract behind a graph's rows: one set of nodes
// per row, universe [0, n). The graph layers (Undirected, Directed) own the
// adjacency lists, edge counts, and symmetry; a rowStore answers membership
// and the complement/diff views derived from it.
//
// A store is built over its graph's neighbor lists and may read them
// instead of keeping entries of its own — the sparse store does, for short
// rows. That makes the mutation order part of the contract: after
// insert(u, v) returns true the graph appends v to list u before it calls
// the store on row u again. A store never writes the lists, and rows only
// grow — graphs are insert-only.
//
// Ordering contract: forEach visits in increasing node
// order; rank/selectClear/selectDiff are defined over that order. Every
// implementation must agree exactly — the cross-backend equivalence suite
// pins this.
type rowStore interface {
	// backend identifies the concrete storage strategy (never BackendAuto).
	backend() Backend
	// test reports whether v is in row u.
	test(u, v int) bool
	// insert adds v to row u and reports whether it was absent — the fused
	// test-and-set the grouped commit paths rely on.
	insert(u, v int) bool
	// count returns the number of entries in row u.
	count(u int) int
	// forEach visits the entries of row u in increasing order.
	forEach(u int, fn func(v int))
	// rank returns the number of entries in row u that are < v.
	rank(u, v int) int
	// selectClear returns the k-th (0-based, increasing order) value of
	// [0, n) absent from row u, or -1 if fewer than k+1 are absent.
	selectClear(u, k int) int
	// diffCount returns |target &^ row(u)|: how many of target's bits are
	// not yet in row u. target must have capacity n.
	diffCount(u int, target *bitset.Set) int
	// selectDiff returns the k-th (0-based, increasing order) bit of
	// target &^ row(u), or -1 if the difference has fewer than k+1 bits.
	selectDiff(u int, target *bitset.Set, k int) int
	// row returns row u as a bitset. The result is live on the dense
	// backend (and for promoted sparse rows) but may be a freshly
	// materialized snapshot otherwise; callers must treat it as read-only
	// and must not hold it across mutations.
	row(u int) *bitset.Set
	// clone returns a deep copy on the same backend, built over lists —
	// the cloned graph's copy of the neighbor lists.
	clone(lists *lists) rowStore
}

// denseRows is the golden reference store: one flat bit matrix. slab holds
// n rows of stride = ⌈n/64⌉ words each, row u at slab[u*stride:(u+1)*stride],
// so bit v of row u is bit v&63 of slab[u*stride+v>>6] — the one dependent
// load the grouped commit loops (AddEdgesGrouped, AddArcsGrouped) make per
// test. rows[u] is a cap-limited bitset view over row u's words: the same
// bytes, for every whole-row operation. Nothing is allocated per row.
type denseRows struct {
	stride int
	slab   []uint64
	rows   []bitset.Set
}

// newDenseRows allocates the zeroed slab and lays the row views over it.
// The views are three-index slices: a row cannot be resliced into the next
// one.
func newDenseRows(n int) *denseRows {
	stride := (n + 63) / 64
	s := &denseRows{stride: stride, slab: make([]uint64, n*stride), rows: make([]bitset.Set, n)}
	for u := range s.rows {
		lo, hi := u*stride, (u+1)*stride
		s.rows[u] = bitset.View(s.slab[lo:hi:hi], n)
	}
	return s
}

func (s *denseRows) backend() Backend   { return BackendDense }
func (s *denseRows) test(u, v int) bool { return s.rows[u].Test(v) }

func (s *denseRows) insert(u, v int) bool {
	return s.rows[u].OrWord(v>>6, 1<<(uint(v)&63)) != 0
}

func (s *denseRows) count(u int) int               { return s.rows[u].Count() }
func (s *denseRows) forEach(u int, fn func(v int)) { s.rows[u].ForEach(fn) }
func (s *denseRows) rank(u, v int) int             { return s.rows[u].Rank(v) }
func (s *denseRows) selectClear(u, k int) int      { return s.rows[u].SelectClear(k) }

func (s *denseRows) diffCount(u int, target *bitset.Set) int {
	return target.DiffCount(&s.rows[u])
}

func (s *denseRows) selectDiff(u int, target *bitset.Set, k int) int {
	return target.SelectDiff(&s.rows[u], k)
}

func (s *denseRows) row(u int) *bitset.Set { return &s.rows[u] }

func (s *denseRows) clone(*lists) rowStore {
	c := newDenseRows(len(s.rows))
	copy(c.slab, s.slab)
	return c
}
