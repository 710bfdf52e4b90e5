package graph

// This file implements the distance machinery the paper's analysis is
// phrased in: Nⁱ(u) — the set of nodes at distance exactly i from u — plus
// connectivity, components, diameter and eccentricity.

// BFSDistances returns dist where dist[v] is the hop distance from src to v
// in g, or -1 if v is unreachable.
func (g *Undirected) BFSDistances(src int) []int {
	g.checkNode(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		du := dist[u]
		for _, v32 := range g.adj.list(u) {
			v := int(v32)
			if dist[v] == -1 {
				dist[v] = du + 1
				queue = append(queue, v32)
			}
		}
	}
	return dist
}

// NeighborhoodSizes returns sizes where sizes[i] = |Nⁱ(u)| for i in
// [0, maxDist], computed on the current graph. sizes[0] is always 1.
func (g *Undirected) NeighborhoodSizes(u, maxDist int) []int {
	dist := g.BFSDistances(u)
	sizes := make([]int, maxDist+1)
	for _, d := range dist {
		if d >= 0 && d <= maxDist {
			sizes[d]++
		}
	}
	return sizes
}

// NodesAtDistance returns Nⁱ(u): the nodes at hop distance exactly i from u.
func (g *Undirected) NodesAtDistance(u, i int) []int {
	dist := g.BFSDistances(u)
	var out []int
	for v, d := range dist {
		if d == i {
			out = append(out, v)
		}
	}
	return out
}

// Ball returns the set of nodes at distance in [1, r] from u (excluding u),
// i.e. ∪_{i=1..r} Nⁱ(u), as used by Lemma 1.
func (g *Undirected) Ball(u, r int) []int {
	dist := g.BFSDistances(u)
	var out []int
	for v, d := range dist {
		if d >= 1 && d <= r {
			out = append(out, v)
		}
	}
	return out
}

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Undirected) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := 0
	for _, d := range g.BFSDistances(0) {
		if d >= 0 {
			seen++
		}
	}
	return seen == g.n
}

// ConnectedComponents returns the node sets of the connected components, in
// order of their smallest node.
func (g *Undirected) ConnectedComponents() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(comps)
		comp[s] = id
		members := []int{s}
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v32 := range g.adj.list(u) {
				v := int(v32)
				if comp[v] == -1 {
					comp[v] = id
					members = append(members, v)
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, members)
	}
	return comps
}

// Eccentricity returns the maximum finite distance from u, or -1 if some
// node is unreachable from u.
func (g *Undirected) Eccentricity(u int) int {
	ecc := 0
	for _, d := range g.BFSDistances(u) {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity over all nodes, or -1 if the
// graph is disconnected. It runs a BFS from every node (O(n·m)).
func (g *Undirected) Diameter() int {
	if g.n == 0 {
		return 0
	}
	diam := 0
	for u := 0; u < g.n; u++ {
		e := g.Eccentricity(u)
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}
