package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"gossipdisc/internal/rng"
)

func directedCycle(n int) *Directed {
	g := NewDirected(n)
	for i := 0; i < n; i++ {
		g.AddArc(i, (i+1)%n)
	}
	return g
}

func directedPath(n int) *Directed {
	g := NewDirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddArc(i, i+1)
	}
	return g
}

func TestAddArcBasics(t *testing.T) {
	g := NewDirected(3)
	if !g.AddArc(0, 1) {
		t.Fatal("new arc reported duplicate")
	}
	if g.AddArc(0, 1) {
		t.Fatal("duplicate arc reported new")
	}
	if !g.AddArc(1, 0) {
		t.Fatal("reverse arc should be new")
	}
	if g.AddArc(2, 2) {
		t.Fatal("self-arc reported new")
	}
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
	if !g.HasArc(0, 1) || !g.HasArc(1, 0) || g.HasArc(0, 2) {
		t.Fatal("arc membership wrong")
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 || g.InDegree(2) != 0 {
		t.Fatal("degree accounting wrong")
	}
	g.CheckInvariants()
}

// TestDirectedRangePanics is TestNodeRangePanics for the out-lists, read
// through the accessor every Directed method reads them by.
func TestDirectedRangePanics(t *testing.T) {
	for _, b := range []Backend{BackendDense, BackendSparse} {
		g := NewDirectedOn(2, b)
		g.AddArc(0, 1)
		g.AddArc(1, 0)
		if b == BackendSparse {
			if s0, s1 := g.out.spans[0], g.out.spans[1]; s1.at != s0.at+1<<minOrder {
				t.Fatalf("out-list 1 at %d is not directly behind out-list 0 at %d", s1.at, s0.at)
			}
			if l := g.out.list(0); len(l) != 1 || cap(l) != 1 {
				t.Fatalf("out-list 0 has len %d cap %d, want 1 and 1", len(l), cap(l))
			}
		}
		for _, f := range []func(){
			func() { g.AddArc(0, 2) },
			func() { g.HasArc(-1, 0) },
			func() { g.OutDegree(2) },
			func() { g.InDegree(-1) },
			func() { _ = g.out.list(0)[g.OutDegree(0)] },
			func() { _ = g.out.list(1)[g.OutDegree(1)] },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v: expected panic", b)
					}
				}()
				f()
			}()
		}
	}
}

func TestRandomOutNeighbor(t *testing.T) {
	g := NewDirected(4)
	g.AddArc(0, 1)
	g.AddArc(0, 2)
	r := rng.New(3)
	seen := map[int]int{}
	for i := 0; i < 10000; i++ {
		seen[g.RandomOutNeighbor(0, r)]++
	}
	if len(seen) != 2 || seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("out neighbor dist %v", seen)
	}
	if g.RandomOutNeighbor(3, r) != -1 {
		t.Fatal("sink returned a neighbor")
	}
}

func TestArcsOrder(t *testing.T) {
	g := NewDirected(3)
	g.AddArc(2, 0)
	g.AddArc(0, 2)
	g.AddArc(0, 1)
	arcs := g.Arcs()
	want := []Arc{{0, 1}, {0, 2}, {2, 0}}
	if len(arcs) != len(want) {
		t.Fatalf("arcs %v", arcs)
	}
	for i := range want {
		if arcs[i] != want[i] {
			t.Fatalf("arcs %v want %v", arcs, want)
		}
	}
}

func TestDirectedCloneEqual(t *testing.T) {
	g := directedCycle(5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone unequal")
	}
	c.AddArc(0, 2)
	if g.Equal(c) || g.HasArc(0, 2) {
		t.Fatal("clone aliased")
	}
	c.CheckInvariants()
}

func TestUnderlying(t *testing.T) {
	g := NewDirected(3)
	g.AddArc(0, 1)
	g.AddArc(1, 0)
	g.AddArc(1, 2)
	u := g.Underlying()
	if u.M() != 2 || !u.HasEdge(0, 1) || !u.HasEdge(1, 2) {
		t.Fatalf("underlying wrong: %v", u)
	}
}

func TestReachableFrom(t *testing.T) {
	g := directedPath(5)
	r := g.ReachableFrom(2)
	if r.Count() != 3 || !r.Test(2) || !r.Test(3) || !r.Test(4) || r.Test(1) {
		t.Fatalf("reachable from 2: %v", r)
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := directedPath(4)
	rows := g.TransitiveClosure()
	// Node 0 reaches 1,2,3; node 3 reaches nothing.
	if rows[0].Count() != 3 || rows[3].Count() != 0 {
		t.Fatalf("closure rows %v / %v", rows[0], rows[3])
	}
	if rows[0].Test(0) {
		t.Fatal("closure row contains self")
	}
	if g.ClosureArcCount() != 3+2+1+0 {
		t.Fatalf("closure arcs %d", g.ClosureArcCount())
	}
}

func TestIsClosed(t *testing.T) {
	g := directedPath(3)
	if g.IsClosed() {
		t.Fatal("path closed")
	}
	g.AddArc(0, 2)
	if !g.IsClosed() {
		t.Fatal("closure not detected")
	}
	// A cycle's closure is the complete digraph.
	c := directedCycle(4)
	if c.IsClosed() {
		t.Fatal("cycle closed")
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			c.AddArc(u, v)
		}
	}
	if !c.IsClosed() {
		t.Fatal("complete digraph not closed")
	}
}

func TestStrongWeakConnectivity(t *testing.T) {
	c := directedCycle(6)
	if !c.IsStronglyConnected() {
		t.Fatal("cycle not strongly connected")
	}
	p := directedPath(6)
	if p.IsStronglyConnected() {
		t.Fatal("path strongly connected")
	}
	if !p.IsWeaklyConnected() {
		t.Fatal("path not weakly connected")
	}
	dis := NewDirected(3)
	dis.AddArc(0, 1)
	if dis.IsWeaklyConnected() {
		t.Fatal("disconnected graph weakly connected")
	}
	if !NewDirected(1).IsStronglyConnected() {
		t.Fatal("singleton not strongly connected")
	}
}

func TestCondensationSize(t *testing.T) {
	// Two 3-cycles joined by a single arc: 2 SCCs.
	g := NewDirected(6)
	for i := 0; i < 3; i++ {
		g.AddArc(i, (i+1)%3)
		g.AddArc(3+i, 3+(i+1)%3)
	}
	g.AddArc(0, 3)
	if s := g.CondensationSize(); s != 2 {
		t.Fatalf("SCC count %d want 2", s)
	}
	if s := directedPath(5).CondensationSize(); s != 5 {
		t.Fatalf("path SCCs %d want 5", s)
	}
	if s := directedCycle(5).CondensationSize(); s != 1 {
		t.Fatalf("cycle SCCs %d want 1", s)
	}
	if s := NewDirected(0).CondensationSize(); s != 0 {
		t.Fatalf("empty SCCs %d", s)
	}
}

// Property: strong connectivity is equivalent to a single SCC.
func TestQuickStrongConnectivityMatchesTarjan(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(12)
		g := NewDirected(n)
		arcs := n + r.Intn(2*n)
		for i := 0; i < arcs; i++ {
			g.AddArc(r.Intn(n), r.Intn(n))
		}
		return g.IsStronglyConnected() == (g.CondensationSize() == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: transitive closure is idempotent — the graph whose arcs are the
// closure rows is itself closed.
func TestQuickClosureIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		g := NewDirected(n)
		for i := 0; i < n+r.Intn(n*2); i++ {
			g.AddArc(r.Intn(n), r.Intn(n))
		}
		rows := g.TransitiveClosure()
		h := NewDirected(n)
		for u, row := range rows {
			row.ForEach(func(v int) { h.AddArc(u, v) })
		}
		return h.IsClosed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reachability includes the out-neighborhood and is transitive.
func TestQuickReachabilityContainsArcs(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		g := NewDirected(n)
		for i := 0; i < n+r.Intn(n); i++ {
			g.AddArc(r.Intn(n), r.Intn(n))
		}
		for u := 0; u < n; u++ {
			ru := g.ReachableFrom(u)
			for _, v := range g.OutNeighbors(u, nil) {
				if !ru.Test(v) {
					return false
				}
				if !g.ReachableFrom(v).IsSubsetOf(ru) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	r := rng.New(7)
	n := 128
	g := NewDirected(n)
	for i := 0; i < 4*n; i++ {
		g.AddArc(r.Intn(n), r.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TransitiveClosure()
	}
}

// TestAddArcsMatchesAddArcLoop: the batched arc commit path must match a
// loop of AddArc calls and report exactly the newly inserted arcs in order.
func TestAddArcsMatchesAddArcLoop(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		batch := make([]Arc, 0, 3*n)
		for i := 0; i < 3*n; i++ {
			batch = append(batch, Arc{U: r.Intn(n), V: r.Intn(n)})
		}
		a, b := NewDirected(n), NewDirected(n)
		var want []Arc
		for _, arc := range batch {
			if a.AddArc(arc.U, arc.V) {
				want = append(want, arc)
			}
		}
		accepted := b.AddArcs(batch, nil)
		if len(accepted) != len(want) {
			t.Fatalf("n=%d AddArcs accepted %d want %d", n, len(accepted), len(want))
		}
		for i := range want {
			if accepted[i] != want[i] {
				t.Fatalf("n=%d accepted[%d] = %v want %v", n, i, accepted[i], want[i])
			}
		}
		if !a.Equal(b) {
			t.Fatalf("n=%d batched digraph differs from sequential", n)
		}
		b.CheckInvariants()
	}
}

func TestAddArcsReusesAcceptedBuffer(t *testing.T) {
	g := NewDirected(8)
	buf := make([]Arc, 0, 16)
	out := g.AddArcs([]Arc{{U: 0, V: 1}, {U: 0, V: 1}, {U: 2, V: 2}, {U: 1, V: 0}}, buf[:0])
	if len(out) != 2 || out[0] != (Arc{U: 0, V: 1}) || out[1] != (Arc{U: 1, V: 0}) {
		t.Fatalf("accepted arcs %v", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("accepted slice did not reuse the passed buffer")
	}
}

func TestAddArcsOutOfRangePanics(t *testing.T) {
	g := NewDirected(4)
	defer func() {
		if recover() == nil {
			t.Fatal("AddArcs with out-of-range node did not panic")
		}
	}()
	g.AddArcs([]Arc{{U: -1, V: 2}}, nil)
}

// TestAddArcsGroupedEquivalence: the grouped arc commit (which AddArcs
// delegates to) must be state-identical to a sequence of per-arc AddArc
// calls (same matrix, same out-list insertion order, same in-degrees) and
// must accept the same arcs in the same order.
func TestAddArcsGroupedEquivalence(t *testing.T) {
	for _, backend := range []Backend{BackendDense, BackendSparse} {
		t.Run(backend.String(), func(t *testing.T) {
			f := func(seed uint64, raw []uint16) bool {
				r := rng.New(seed)
				const n = 50
				base := NewDirectedOn(n, backend)
				for i := 0; i < 30; i++ {
					base.AddArc(r.Intn(n), r.Intn(n))
				}
				var batch []Arc
				for _, x := range raw {
					batch = append(batch, Arc{U: int(x) % n, V: int(x/50) % n})
				}
				a, b, c := base.Clone(), base.Clone(), base.Clone()
				var acceptedA []Arc
				for _, x := range batch {
					if a.AddArc(x.U, x.V) {
						acceptedA = append(acceptedA, x)
					}
				}
				acceptedB := b.AddArcsGrouped(batch, nil)
				// In place: a copy of the batch committed into its own front.
				acceptedC := slices.Clone(batch)
				acceptedC = c.AddArcsGrouped(acceptedC, acceptedC[:0])
				// Every variant reports accepted arcs in batch order.
				if !slices.Equal(acceptedA, acceptedB) || !slices.Equal(acceptedB, acceptedC) {
					return false
				}
				for _, g := range []*Directed{b, c} {
					if !a.Equal(g) || a.M() != g.M() {
						return false
					}
					for u := 0; u < n; u++ {
						if a.OutDegree(u) != g.OutDegree(u) || a.InDegree(u) != g.InDegree(u) {
							return false
						}
						oa, og := a.OutNeighbors(u, nil), g.OutNeighbors(u, nil)
						if !slices.Equal(oa, og) {
							t.Logf("out-list order differs at node %d", u)
							return false
						}
					}
					g.CheckInvariants()
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAddArcsGroupedCommitOrder(t *testing.T) {
	g := NewDirected(8)
	accepted := g.AddArcsGrouped([]Arc{{5, 1}, {2, 3}, {5, 0}, {2, 3}, {1, 1}}, nil)
	want := []Arc{{5, 1}, {2, 3}, {5, 0}} // in-batch duplicate and self-arc dropped
	if len(accepted) != len(want) {
		t.Fatalf("accepted %v", accepted)
	}
	for i := range want {
		if accepted[i] != want[i] {
			t.Fatalf("accepted order %v, want %v", accepted, want)
		}
	}
}
