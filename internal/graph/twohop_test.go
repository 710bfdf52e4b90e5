package graph

import (
	"strings"
	"testing"

	"gossipdisc/internal/rng"
)

// TestTwoHopWalksMatchesRandomNeighbor: the block of walks is the per-node
// pair of hops gated by the mask — same endpoints, -1s included, same
// stream state — on the undirected graph (both backends, every mask of
// blockTestMasks) and the directed one (no mask). Nodes 0, 3, 20, 33–35,
// 102 and n-1 have an empty list, so every range tried (lo = 3 and
// lo+width-1 for each width, plus the whole graph) starts and ends on one;
// on the digraph they still have in-arcs, which makes them sinks that walks
// reach as the middle hop. Under the some-dead mask walks start on dead
// nodes, reach dead relays, and lo = 63 puts whole blocks on dead nodes.
// Widths straddle core's 32-node block. (core's Test*ActRangeMatchesAct
// hold the acts built on this to Act.)
func TestTwoHopWalksMatchesRandomNeighbor(t *testing.T) {
	const n = 140
	empty := map[int]bool{0: true, 3: true, 20: true, 33: true, 34: true, 35: true, 102: true, n - 1: true}

	type walker struct {
		name   string
		masks  map[string][]bool
		walks  func(lo int, alive []bool, r *rng.Rand, ws []int32)
		hop    func(u int, r *rng.Rand) int
		degree func(u int) int
	}
	var walkers []walker
	for _, b := range []Backend{BackendDense, BackendSparse} {
		g := NewUndirectedOn(n, b)
		build := rng.New(7)
		for k := 0; k < 4*n; k++ {
			if u, v := build.Intn(n), build.Intn(n); !empty[u] && !empty[v] {
				g.AddEdge(u, v)
			}
		}
		walkers = append(walkers, walker{"undirected/" + b.String(), blockTestMasks(n), g.TwoHopWalks, g.RandomNeighbor, g.Degree})
		if msg, ok := panicMessage(func() { g.TwoHopWalks(1, make([]bool, n-1), rng.New(1), make([]int32, 4)) }).(string); !ok || !strings.HasPrefix(msg, "graph: liveness mask") {
			t.Fatalf("%s: short mask panicked with %v, want a graph: message", b, msg)
		}
	}
	d := NewDirected(n)
	build := rng.New(8)
	for k := 0; k < 4*n; k++ {
		if u, v := build.Intn(n), build.Intn(n); !empty[u] {
			d.AddArc(u, v) // v may be a sink: it gains an in-arc, never an out-arc
		}
	}
	walkers = append(walkers, walker{"directed", map[string][]bool{"nil": nil},
		func(lo int, _ []bool, r *rng.Rand, ws []int32) { d.TwoHopWalks(lo, r, ws) }, d.RandomOutNeighbor, d.OutDegree})

	for _, wk := range walkers {
		for u := range empty {
			if wk.degree(u) != 0 {
				t.Fatalf("%s: node %d should have an empty list", wk.name, u)
			}
		}
		ranges := [][2]int{{0, n}, {0, 0}, {n, 0}}
		for _, width := range []int{1, 31, 32, 33, 100} {
			ranges = append(ranges, [2]int{3, width}, [2]int{63, min(width, n-63)})
		}
		for name, alive := range wk.masks {
			live := func(u int) bool { return alive == nil || alive[u] }
			sinkHops, deadStarts, deadRelays := 0, 0, 0
			for _, rg := range ranges {
				lo, width := rg[0], rg[1]
				a := rng.New(uint64(lo + width))
				b := *a
				ws := make([]int32, width)
				wk.walks(lo, alive, a, ws)
				for k, got := range ws {
					u, v, w := lo+k, -1, -1
					switch {
					case !live(u):
						if wk.degree(u) > 0 {
							deadStarts++
						}
					default:
						v = wk.hop(u, &b)
						if (v == -1) != (wk.degree(u) == 0) {
							t.Fatalf("%s: node %d of degree %d drew first hop %d", wk.name, u, wk.degree(u), v)
						}
						if v >= 0 && !live(v) {
							deadRelays++
						} else if v >= 0 {
							if w = wk.hop(v, &b); w < 0 {
								sinkHops++
							}
						}
					}
					if int(got) != w {
						t.Fatalf("%s/%s block [%d,%d): node %d walked to %d, per-node hops (via %d) to %d", wk.name, name, lo, lo+width, u, got, v, w)
					}
				}
				if *a != b {
					t.Fatalf("%s/%s block [%d,%d): stream state differs from the per-node loop's", wk.name, name, lo, lo+width)
				}
			}
			if wk.name == "directed" && sinkHops == 0 {
				t.Fatalf("%s: no walk stopped at a sink as its middle hop, so that path was not compared", wk.name)
			}
			if name == "some-dead" && (deadStarts == 0 || deadRelays == 0) {
				t.Fatalf("%s/%s: %d dead starts with a list, %d dead relays; want both compared", wk.name, name, deadStarts, deadRelays)
			}
		}
		// A block reaching outside the graph panics as the per-node hop does.
		for _, bad := range []struct{ lo, width, node int }{{-1, 2, -1}, {n - 1, 2, n}, {n, 1, n}} {
			want := panicMessage(func() { wk.hop(bad.node, rng.New(1)) })
			got := panicMessage(func() { wk.walks(bad.lo, nil, rng.New(1), make([]int32, bad.width)) })
			if got == nil || got != want {
				t.Fatalf("%s: block of %d at %d panicked with %v, want %v", wk.name, bad.width, bad.lo, got, want)
			}
		}
	}
}
