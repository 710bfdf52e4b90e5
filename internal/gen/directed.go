package gen

import (
	"fmt"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// DirectedPath returns the directed path 0 → 1 → … → n-1.
func DirectedPath(n int, backend ...graph.Backend) *graph.Directed {
	g := graph.NewDirectedOn(n, pick(backend))
	for i := 0; i+1 < n; i++ {
		g.AddArc(i, i+1)
	}
	return g
}

// DirectedCycle returns the directed n-cycle.
func DirectedCycle(n int, backend ...graph.Backend) *graph.Directed {
	g := DirectedPath(n, backend...)
	if n >= 2 {
		g.AddArc(n-1, 0)
	}
	return g
}

// CompleteDigraph returns the complete digraph (all ordered pairs).
func CompleteDigraph(n int, backend ...graph.Backend) *graph.Directed {
	g := graph.NewDirectedOn(n, pick(backend))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			g.AddArc(u, v)
		}
	}
	return g
}

// RandomStronglyConnected returns a directed cycle on a random node
// permutation plus `extra` additional uniform random arcs — strongly
// connected by construction.
func RandomStronglyConnected(n, extra int, r *rng.Rand, backend ...graph.Backend) *graph.Directed {
	g := graph.NewDirectedOn(n, pick(backend))
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		g.AddArc(perm[i], perm[(i+1)%n])
	}
	for i := 0; i < extra; i++ {
		g.AddArc(r.Intn(n), r.Intn(n))
	}
	return g
}

// RandomWeaklyConnected returns a random tree with randomly oriented edges
// plus `extra` random arcs — weakly but (typically) not strongly connected.
func RandomWeaklyConnected(n, extra int, r *rng.Rand, backend ...graph.Backend) *graph.Directed {
	g := graph.NewDirectedOn(n, pick(backend))
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[r.Intn(i)]
		if r.Bool() {
			u, v = v, u
		}
		g.AddArc(u, v)
	}
	for i := 0; i < extra; i++ {
		g.AddArc(r.Intn(n), r.Intn(n))
	}
	return g
}

// Thm14WeakLowerBound returns the weakly connected construction from the
// lower-bound half of Theorem 14's proof, on which the directed two-hop walk
// needs Ω(n² log n) rounds. n must be divisible by 4.
//
// Nodes {0, …, n-1}; arcs
//
//	(3i → j), (3i+1 → j)    for 0 <= i < n/4 and 3n/4 <= j < n,
//	(3i → 3i+1), (3i+1 → 3i+2)  for 0 <= i < n/4.
//
// The only arcs the process must add are (3i → 3i+2) for each i, each of
// which requires node 3i to take the specific two-hop walk 3i → 3i+1 → 3i+2
// against an out-degree of about n/4 — probability Θ(1/n²) per round, and
// all n/4 of these events are independent.
func Thm14WeakLowerBound(n int, backend ...graph.Backend) *graph.Directed {
	if n%4 != 0 || n < 8 {
		panic(fmt.Sprintf("gen: Thm14WeakLowerBound(%d): n must be a multiple of 4, >= 8", n))
	}
	g := graph.NewDirectedOn(n, pick(backend))
	for i := 0; i < n/4; i++ {
		for j := 3 * n / 4; j < n; j++ {
			g.AddArc(3*i, j)
			g.AddArc(3*i+1, j)
		}
		g.AddArc(3*i, 3*i+1)
		g.AddArc(3*i+1, 3*i+2)
	}
	return g
}

// Thm15StrongLowerBound returns the strongly connected construction of
// Theorem 15 (Figures 3–4), on which the directed two-hop walk needs Ω(n²)
// expected rounds. n must be even and >= 4.
//
// With 1-indexed nodes {1..n} the paper defines
//
//	E = {(i, j) : 1 <= i, j <= n/2}             (complete digraph on the low half)
//	  ∪ {(i, i+1) : n/2 <= i < n}               (a chain through the high half)
//	  ∪ {(i, j) : i > j, i > n/2}               (high nodes point at everything below)
//
// Here nodes are 0-indexed: low half L = {0..n/2-1} is a complete digraph;
// arcs (i → i+1) for n/2-1 <= i <= n-2; and every node i >= n/2 has arcs to
// all j < i.
func Thm15StrongLowerBound(n int, backend ...graph.Backend) *graph.Directed {
	if n%2 != 0 || n < 4 {
		panic(fmt.Sprintf("gen: Thm15StrongLowerBound(%d): n must be even, >= 4", n))
	}
	g := graph.NewDirectedOn(n, pick(backend))
	half := n / 2
	for i := 0; i < half; i++ {
		for j := 0; j < half; j++ {
			g.AddArc(i, j)
		}
	}
	for i := half - 1; i <= n-2; i++ {
		g.AddArc(i, i+1)
	}
	for i := half; i < n; i++ {
		for j := 0; j < i; j++ {
			g.AddArc(i, j)
		}
	}
	return g
}

// LayeredDAG returns a DAG with `layers` layers of `width` nodes where every
// node has arcs to all nodes of the next layer.
func LayeredDAG(layers, width int, backend ...graph.Backend) *graph.Directed {
	g := graph.NewDirectedOn(layers*width, pick(backend))
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				g.AddArc(l*width+a, (l+1)*width+b)
			}
		}
	}
	return g
}
