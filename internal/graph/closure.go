package graph

import "gossipdisc/internal/bitset"

// This file implements reachability and transitive closure on directed
// graphs. The directed two-hop process terminates when G_t contains the arc
// (u, v) for every ordered pair with a u→v path in G₀ (Section 5 of the
// paper); the closure of G₀ is therefore the termination target. All but
// ReachableFrom, the tests' per-node reference, read one Tarjan pass: a row
// per strongly connected component, built in its finishing order.

// ReachableFrom returns the set of nodes reachable from src by directed
// paths, including src itself.
func (g *Directed) ReachableFrom(src int) *bitset.Set {
	g.checkNode(src)
	seen := bitset.New(g.n)
	seen.Set(src)
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		for _, v32 := range g.out.list(u) {
			v := int(v32)
			if !seen.Test(v) {
				seen.Set(v)
				queue = append(queue, v32)
			}
		}
	}
	return seen
}

// condense runs Tarjan's algorithm over the out-lists with an explicit call
// stack. It writes each node's component into comp (len N()), numbered in
// the order they finish, calls done (if non-nil) with each component's
// members as it finishes, and returns the number of components.
func (g *Directed) condense(comp []int32, done func(c int32, members []int32)) int {
	index := make([]int32, g.n) // preorder number + 1; 0 while unvisited
	low := make([]int32, g.n)
	var stack []int32 // visited nodes whose component is still open
	type frame struct{ u, ci int32 }
	var calls []frame // the DFS path: node and out-list cursor
	var next, count int32
	for s := range g.n {
		if index[s] != 0 {
			continue
		}
		calls = append(calls, frame{int32(s), 0})
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			u := f.u
			if f.ci == 0 { // first visit; comp < 0 marks "on the stack"
				next++
				index[u], low[u], comp[u] = next, next, -1
				stack = append(stack, u)
			}
			if out := g.out.list(int(u)); int(f.ci) < len(out) {
				v := out[f.ci]
				f.ci++
				if index[v] == 0 {
					calls = append(calls, frame{v, 0})
				} else if comp[v] < 0 {
					low[u] = min(low[u], index[v])
				}
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				p := calls[len(calls)-1].u
				low[p] = min(low[p], low[u])
			}
			if low[u] == index[u] {
				i := len(stack) - 1
				for stack[i] != u {
					i--
				}
				for _, w := range stack[i:] {
					comp[w] = count
				}
				if done != nil {
					done(count, stack[i:])
				}
				stack = stack[:i]
				count++
			}
		}
	}
	return int(count)
}

// Condensation returns g's strongly connected components and their reach:
// comp[u] is u's component, numbered in reverse topological order (no arc
// enters a larger number), and reach[c], shared by c's members, is the set
// of nodes they reach — themselves included, so u's closure row plus u.
func (g *Directed) Condensation() (comp []int32, reach []*bitset.Set) {
	comp = make([]int32, g.n)
	g.condense(comp, func(c int32, members []int32) {
		row := bitset.New(g.n)
		for _, u := range members {
			row.Set(int(u))
			for _, v := range g.out.list(int(u)) {
				// Merged rows are reach-closed: a head in row adds nothing.
				if comp[v] != c && !row.Test(int(v)) {
					row.UnionWith(reach[comp[v]])
				}
			}
		}
		reach = append(reach, row)
	})
	return comp, reach
}

// TransitiveClosure returns rows where rows[u] is the set of nodes v != u
// reachable from u: the out-neighbor sets the directed two-hop process must
// converge to, one copy per node.
func (g *Directed) TransitiveClosure() []*bitset.Set {
	comp, reach := g.Condensation()
	rows := make([]*bitset.Set, g.n)
	for u, c := range comp {
		rows[u] = reach[c].Clone()
		rows[u].Clear(u)
	}
	return rows
}

// ClosureArcCount returns the total number of arcs in the transitive
// closure of g (the termination target size for the two-hop process).
func (g *Directed) ClosureArcCount() int {
	comp, reach := g.Condensation()
	total := 0
	for _, c := range comp {
		total += reach[c].Count() - 1
	}
	return total
}

// IsClosed reports whether g already equals its own transitive closure,
// i.e. whether the directed two-hop process has terminated. Every out-row
// is a subset of its closure row, so equal totals mean equal rows.
func (g *Directed) IsClosed() bool {
	return g.ClosureArcCount() == g.m
}

// IsStronglyConnected reports whether every node reaches every other node.
// For n <= 1 it returns true.
func (g *Directed) IsStronglyConnected() bool {
	return g.n <= 1 || g.CondensationSize() == 1
}

// IsWeaklyConnected reports whether the underlying undirected graph is
// connected.
func (g *Directed) IsWeaklyConnected() bool {
	return g.Underlying().IsConnected()
}

// CondensationSize returns the number of strongly connected components.
func (g *Directed) CondensationSize() int {
	return g.condense(make([]int32, g.n), nil)
}
