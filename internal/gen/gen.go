// Package gen constructs the initial graphs ("workloads") that the paper's
// theorems quantify over: standard sparse families that stress the upper
// bounds (paths, cycles, trees, stars), dense families that stress the lower
// bounds (near-complete graphs), random families, and — in directed.go — the
// paper's explicit lower-bound constructions for Theorems 14 and 15.
//
// All generators are deterministic given a *rng.Rand; generators of fixed
// graphs take no generator argument.
//
// Every parameterized generator takes an optional trailing graph.Backend
// selecting the row-storage backend of the produced graph (default
// BackendDense). The generated edge set and adjacency insertion order are
// identical for every backend, so downstream simulations draw the same
// samples whichever backend is chosen.
package gen

import (
	"fmt"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// pick resolves the optional trailing backend argument of a generator.
func pick(backend []graph.Backend) graph.Backend {
	if len(backend) > 0 {
		return backend[0]
	}
	return graph.BackendDense
}

// Path returns the path 0–1–…–(n-1).
func Path(n int, backend ...graph.Backend) *graph.Undirected {
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the n-cycle (n >= 3); for n < 3 it returns Path(n).
func Cycle(n int, backend ...graph.Backend) *graph.Undirected {
	g := Path(n, backend...)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int, backend ...graph.Backend) *graph.Undirected {
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int, backend ...graph.Backend) *graph.Undirected {
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// BinaryTree returns the complete-ish binary tree on n nodes where node i's
// children are 2i+1 and 2i+2.
func BinaryTree(n int, backend ...graph.Backend) *graph.Undirected {
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 1; i < n; i++ {
		g.AddEdge(i, (i-1)/2)
	}
	return g
}

// RandomTree returns a uniformly random labeled tree on n nodes via a random
// attachment sequence (each new node attaches to a uniform existing node
// under a random node ordering — a random recursive tree on a random
// permutation; not Prüfer-uniform but an excellent sparse workload).
func RandomTree(n int, r *rng.Rand, backend ...graph.Backend) *graph.Undirected {
	g := graph.NewUndirectedOn(n, pick(backend))
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)])
	}
	return g
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int, backend ...graph.Backend) *graph.Undirected {
	g := graph.NewUndirectedOn(rows*cols, pick(backend))
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int, backend ...graph.Backend) *graph.Undirected {
	n := 1 << d
	g := graph.NewUndirectedOn(n, pick(backend))
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Lollipop returns a clique on ceil(n/2) nodes with a path of the remaining
// nodes attached to clique node 0 — the classic worst case for random-walk
// style processes.
func Lollipop(n int, backend ...graph.Backend) *graph.Undirected {
	k := (n + 1) / 2
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j)
		}
	}
	prev := 0
	for i := k; i < n; i++ {
		g.AddEdge(prev, i)
		prev = i
	}
	return g
}

// Barbell returns two cliques of size n/2 joined by a single bridge edge
// (n >= 2). For odd n the second clique gets the extra node.
func Barbell(n int, backend ...graph.Backend) *graph.Undirected {
	k := n / 2
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j)
		}
	}
	for i := k; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	if k >= 1 && k < n {
		g.AddEdge(0, k)
	}
	return g
}

// ConnectedER returns an Erdős–Rényi G(n, p) sample conditioned to be
// connected: the sample is patched by linking each non-root component to a
// uniform node of the giant via a single extra edge. For p above the
// connectivity threshold the patch is almost always empty.
func ConnectedER(n int, p float64, r *rng.Rand, backend ...graph.Backend) *graph.Undirected {
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				g.AddEdge(i, j)
			}
		}
	}
	comps := g.ConnectedComponents()
	for _, c := range comps[1:] {
		u := c[r.Intn(len(c))]
		v := comps[0][r.Intn(len(comps[0]))]
		g.AddEdge(u, v)
	}
	return g
}

func tryPairing(n, d int, r *rng.Rand, backend ...graph.Backend) (*graph.Undirected, bool) {
	stubs := make([]int, 0, n*d)
	for u := 0; u < n; u++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, u)
		}
	}
	r.Shuffle(stubs)
	g := graph.NewUndirectedOn(n, pick(backend))
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil, false // reject and restart for exact uniformity-ish
		}
		g.AddEdge(u, v)
	}
	return g, true
}

// PreferentialAttachment returns a Barabási–Albert style graph: starting
// from a clique on m+1 nodes, each new node attaches to m distinct existing
// nodes chosen with probability proportional to degree.
func PreferentialAttachment(n, m int, r *rng.Rand, backend ...graph.Backend) *graph.Undirected {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("gen: PreferentialAttachment(%d, %d) invalid", n, m))
	}
	g := graph.NewUndirectedOn(n, pick(backend))
	// Degree-proportional sampling via the repeated-endpoints trick.
	var endpoints []int
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.AddEdge(i, j)
			endpoints = append(endpoints, i, j)
		}
	}
	for u := m + 1; u < n; u++ {
		added := 0
		for added < m {
			v := endpoints[r.Intn(len(endpoints))]
			if g.AddEdge(u, v) {
				endpoints = append(endpoints, u, v)
				added++
			}
		}
	}
	return g
}

// TwoClustersBridge returns two ConnectedER(n/2, p) clusters joined by one
// bridge edge — the social-network motivation workload (two communities).
func TwoClustersBridge(n int, p float64, r *rng.Rand, backend ...graph.Backend) *graph.Undirected {
	a := n / 2
	b := n - a
	g := graph.NewUndirectedOn(n, pick(backend))
	copyIn := func(h *graph.Undirected, off int) {
		for _, e := range h.Edges() {
			g.AddEdge(e.U+off, e.V+off)
		}
	}
	copyIn(ConnectedER(a, p, r, backend...), 0)
	copyIn(ConnectedER(b, p, r, backend...), a)
	if a >= 1 && b >= 1 {
		g.AddEdge(0, a)
	}
	return g
}

// NearComplete returns K_n with k distinct edges removed, chosen uniformly
// at random, conditioned on the result staying connected (k must satisfy
// k <= n(n-1)/2 - (n-1) so a connected graph exists).
func NearComplete(n, k int, r *rng.Rand, backend ...graph.Backend) *graph.Undirected {
	maxRemovable := n*(n-1)/2 - (n - 1)
	if k < 0 || k > maxRemovable {
		panic(fmt.Sprintf("gen: NearComplete(%d, %d): k out of range [0, %d]", n, k, maxRemovable))
	}
	for {
		g := buildWithoutEdges(n, k, r, backend...)
		if g.IsConnected() {
			return g
		}
	}
}

func buildWithoutEdges(n, k int, r *rng.Rand, backend ...graph.Backend) *graph.Undirected {
	// Choose k distinct pairs to omit.
	type pair struct{ u, v int }
	omit := map[pair]bool{}
	for len(omit) < k {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		omit[pair{u, v}] = true
	}
	g := graph.NewUndirectedOn(n, pick(backend))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !omit[pair{u, v}] {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Fig1cGraph returns the 4-edge "paw" of Figure 1(c): a triangle {0,1,2}
// with a pendant node 3 attached to node 2.
//
// The paper's caption — "the expected convergence time for the 4-edge graph
// exceeds that for the 3-edge subgraph" — is realized by comparing this
// graph against its induced 3-edge subgraph Fig1cSubgraph (the bare
// triangle): the triangle is already complete, so its convergence time is
// zero, while the paw's exact expected time under the synchronous push
// kernel is 4.78125 rounds (internal/markov computes this exactly). Adding
// one node and one edge strictly *increased* the convergence time.
func Fig1cGraph() *graph.Undirected {
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	return g
}

// Fig1cSubgraph returns the 3-edge subgraph of Fig1cGraph induced by the
// triangle nodes {0,1,2}.
func Fig1cSubgraph() *graph.Undirected {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	return g
}

// NonMonotonePair returns the exhaustively verified *spanning* non-monotone
// pair on 4 nodes: G = K₄ minus the edge {2,3} (5 edges) and H = G minus
// the edge {0,1} (the 4-cycle 0–2–1–3). Both are connected and span the
// same nodes, H ⊂ G, yet under the synchronous push kernel
//
//	E[T(G)] = 2.53125  >  E[T(H)] ≈ 2.0792
//
// (exact values from internal/markov). An exhaustive sweep over all
// connected 4-node graph/one-edge-deleted-subgraph pairs shows this is the
// unique such pair up to isomorphism — the minimal hard witness of the
// paper's non-monotonicity phenomenon.
func NonMonotonePair() (g, h *graph.Undirected) {
	g = graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	h = graph.NewUndirected(4)
	for _, e := range g.Edges() {
		if !(e.U == 0 && e.V == 1) {
			h.AddEdge(e.U, e.V)
		}
	}
	return g, h
}
