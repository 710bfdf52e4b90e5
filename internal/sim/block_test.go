package sim

import (
	"fmt"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/simtest"
)

// blockN ends on a ragged block, so a round has full blocks committed over
// a frozen graph and a short last one.
const blockN = 2*blockNodes + 77

// churning is a membership-tracked session whose Run steps it with a
// leave, a join and the joiner's bootstrap edge between every two rounds,
// drawn from a stream of its own.
type churning struct {
	simtest.Runtime
	s     *Session
	alive []bool
	r     *rng.Rand
}

func (c *churning) Run() any {
	for {
		if c.s.MemberCount() > 2 {
			if u := c.r.Intn(len(c.alive)); c.alive[u] {
				c.s.RemoveNode(u)
			}
		}
		if u := c.r.Intn(len(c.alive)); !c.alive[u] {
			c.s.InsertNode(u)
			c.s.AddEdge(u, c.r.Intn(len(c.alive)))
		}
		if _, ok := c.Step(); !ok {
			return c.Stats()
		}
	}
}

// blockRows returns the rows of one undirected process on both backends,
// bare and under a uniform Population: proc builds the process over a
// liveness mask (nil without churn). The bare rows must commit block by
// block on the sparse backend and take the one-call block act on the dense
// one, and the Population rows act node by node.
func blockRows(t *testing.T, name string, churn bool, proc func(alive []bool) core.Process) []simtest.Row {
	var rows []simtest.Row
	for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
		for _, pop := range []bool{false, true} {
			rows = append(rows, simtest.Row{Name: fmt.Sprintf("%s/%s/pop=%v", name, b, pop), New: func() simtest.Runtime {
				var alive []bool
				if churn {
					alive = make([]bool, blockN)
					for u := range blockN - 40 {
						alive[u] = true
					}
				}
				p := proc(alive)
				if pop {
					p = core.NewPopulation(blockN, p)
				}
				s := NewSession(gen.Cycle(blockN, b), p, rng.New(21), Config{MaxRounds: 25})
				if (s.ranged != nil) == pop || (s.blockSize < blockN) != (b == graph.BackendSparse) {
					t.Fatalf("%s/%s/pop=%v: block form %v, blocks of %d", name, b, pop, s.ranged != nil, s.blockSize)
				}
				if !churn {
					return simtest.Undirected(s)
				}
				s.TrackMembership(alive)
				return &churning{simtest.Undirected(s), s, alive, rng.New(22)}
			}})
		}
	}
	return rows
}

// TestBlockCommitMatchesPerNode: a round that commits block by block over
// the frozen sparse graph, or acts in one block call on the dense one,
// gives the Result and delta stream of the same process acting node by
// node into one buffered commit (a uniform Population has no block form),
// and the two backends give the same. Crashed{Push} and CrashedPull run with
// joins and leaves between rounds. A row with nothing subscribed keeps no
// accepted list and must count the same Result.
func TestBlockCommitMatchesPerNode(t *testing.T) {
	for _, tc := range []struct {
		name  string
		churn bool
		proc  func(alive []bool) core.Process
	}{
		{"push", false, func([]bool) core.Process { return core.Push{} }},
		{"pull", false, func([]bool) core.Process { return core.Pull{} }},
		{"crashed-push", true, func(alive []bool) core.Process { return core.Crashed{Inner: core.Push{}, Alive: alive} }},
		{"crashed-pull", true, func(alive []bool) core.Process { return core.CrashedPull{Alive: alive} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := blockRows(t, tc.name, tc.churn, tc.proc)
			want := simtest.Identical(t, rows...)
			if !tc.churn {
				if got := rows[0].New().Run(); got != want.Result {
					t.Fatalf("unobserved run: %+v, observed %+v", got, want.Result)
				}
			}
		})
	}
	t.Run("directed", func(t *testing.T) {
		var rows []simtest.Row
		for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
			rows = append(rows,
				directed("two-hop/"+b.String(), strong(blockN, 9, b), core.DirectedTwoHop{}, 43, DirectedConfig{MaxRounds: 25}),
				directed("pop/"+b.String(), strong(blockN, 9, b), core.NewDirectedPopulation(blockN, core.DirectedTwoHop{}), 43, DirectedConfig{MaxRounds: 25}))
		}
		want := simtest.Identical(t, rows...)
		if got := rows[0].New().Run(); got != want.Result {
			t.Fatalf("unobserved run: %+v, observed %+v", got, want.Result)
		}
	})
}

// TestCrashedProbeIsSynchronous: core.Crashed over a process that reads
// the graph past the sampling reads (slotProbe reads M) acts node by node
// into one buffered commit, so on a round of several blocks no node sees
// an edge of its own round.
func TestCrashedProbeIsSynchronous(t *testing.T) {
	alive := make([]bool, blockN)
	for u := range alive {
		alive[u] = true
	}
	g := gen.Star(blockN)
	probe := &slotProbe{observedM: make([]int, blockN)}
	s := NewSession(g, core.Crashed{Inner: probe, Alive: alive}, rng.New(7), Config{MaxRounds: 1})
	if s.ranged != nil {
		t.Fatal("Crashed over a probe takes the block path")
	}
	s.Run()
	for u, m := range probe.observedM {
		if m != blockN-1 || !g.HasEdge(u, (u+1)%blockN) {
			t.Fatalf("node %d observed mid-round edge count %d (want %d), edge to %d committed: %v",
				u, m, blockN-1, (u+1)%blockN, g.HasEdge(u, (u+1)%blockN))
		}
	}
}

// TestUnobservedBlockRoundKeepsNoBuffer: with nothing reading the accepted
// edges, a sparse Pull round over many blocks holds one block of proposals,
// not the round's.
func TestUnobservedBlockRoundKeepsNoBuffer(t *testing.T) {
	const n = 16*blockNodes + 5
	s := NewSession(gen.Cycle(n, graph.BackendSparse), core.Pull{}, rng.New(3), Config{MaxRounds: 6})
	if res := s.Run(); res.NewEdges < n {
		t.Fatalf("run accepted %d edges, want at least %d", res.NewEdges, n)
	}
	if cap(s.buf) > blockNodes {
		t.Fatalf("round buffer cap %d, over one block of %d nodes", cap(s.buf), blockNodes)
	}
}
