package markov

import (
	"math"
	"testing"
	"testing/quick"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
)

func TestPairIndexBijection(t *testing.T) {
	for n := 2; n <= MaxNodes; n++ {
		seen := map[int]bool{}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				idx := PairIndex(n, u, v)
				if idx != PairIndex(n, v, u) {
					t.Fatalf("PairIndex not symmetric at (%d,%d)", u, v)
				}
				if idx < 0 || idx >= n*(n-1)/2 {
					t.Fatalf("PairIndex(%d,%d,%d) = %d out of range", n, u, v, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != n*(n-1)/2 {
			t.Fatalf("n=%d: PairIndex not a bijection (%d distinct)", n, len(seen))
		}
	}
}

func TestPairIndexSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PairIndex(4, 2, 2)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(MaxNodes-1)
		g := graph.NewUndirected(n)
		for i := 0; i < n; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		h := Decode(Encode(g), n)
		if !g.Equal(h) {
			t.Fatalf("round trip failed for %v", g)
		}
	}
}

func TestCompleteState(t *testing.T) {
	for n := 2; n <= MaxNodes; n++ {
		if Decode(CompleteState(n), n).IsComplete() == false {
			t.Fatalf("CompleteState(%d) not complete", n)
		}
	}
}

func TestTransitionsSumToOne(t *testing.T) {
	for _, k := range []Kernel{PushKernel{}, PullKernel{}} {
		for _, g := range []*graph.Undirected{
			gen.Path(4), gen.Star(4), gen.Cycle(4), gen.Fig1cGraph(), gen.Path(5),
		} {
			trans := Transitions(Encode(g), g.N(), k)
			sum := 0.0
			for sp, p := range trans {
				if p < 0 {
					t.Fatalf("%s: negative probability %v", k.Name(), p)
				}
				if sp&Encode(g) != Encode(g) {
					t.Fatalf("%s: transition dropped edges", k.Name())
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s on %v: transition mass %v", k.Name(), g, sum)
			}
		}
	}
}

func TestPushPath3Exact(t *testing.T) {
	// Path 0-1-2: only node 1 can act (P(add {0,2}) = 1/2 per round), so
	// the convergence time is geometric with mean 2.
	got := ExpectedTime(gen.Path(3), PushKernel{})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("push on P3: %v want 2", got)
	}
}

func TestPullPath3Exact(t *testing.T) {
	// Path 0-1-2: nodes 0 and 2 each hit the far endpoint with prob 1/2;
	// node 1's walk always returns. Per-round success 1-(1/2)² = 3/4;
	// mean 4/3.
	got := ExpectedTime(gen.Path(3), PullKernel{})
	if math.Abs(got-4.0/3) > 1e-9 {
		t.Fatalf("pull on P3: %v want 4/3", got)
	}
}

func TestCompleteGraphZero(t *testing.T) {
	for n := 2; n <= MaxNodes; n++ {
		if e := ExpectedTime(gen.Complete(n), PushKernel{}); e != 0 {
			t.Fatalf("K%d expected time %v", n, e)
		}
	}
}

func TestExpectedTimePanics(t *testing.T) {
	for _, f := range []func(){
		func() { ExpectedTime(gen.Path(6), PushKernel{}) }, // too big
		func() {
			g := graph.NewUndirected(4)
			g.AddEdge(0, 1)
			ExpectedTime(g, PushKernel{}) // disconnected
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestKernelNames(t *testing.T) {
	if (PushKernel{}).Name() != "push" || (PullKernel{}).Name() != "pull" {
		t.Fatal("kernel names wrong")
	}
}

// The exact solver and the Monte-Carlo simulator implement the same
// process; their means must agree. This is the strongest correctness check
// in the repository: it ties the paper-faithful sampling semantics of
// package core to an independent exact computation.
func TestExactMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-validation is slow")
	}
	cases := []struct {
		name  string
		build func() *graph.Undirected
	}{
		{"path4", func() *graph.Undirected { return gen.Path(4) }},
		{"star5", func() *graph.Undirected { return gen.Star(5) }},
		{"cycle5", func() *graph.Undirected { return gen.Cycle(5) }},
		{"fig1c", gen.Fig1cGraph},
		{"k4-minus-e", func() *graph.Undirected { g, _ := gen.NonMonotonePair(); return g }},
	}
	const trials = 4000
	for _, k := range []struct {
		kern Kernel
		proc core.Process
	}{
		{PushKernel{}, core.Push{}},
		{PullKernel{}, core.Pull{}},
	} {
		for _, tc := range cases {
			exact := ExpectedTime(tc.build(), k.kern)
			results := sim.Trials(0, trials, 12345, func(trial int, r *rng.Rand) *graph.Undirected {
				return tc.build()
			}, func(g *graph.Undirected, r *rng.Rand) sim.Result { return sim.Run(g, k.proc, r, sim.Config{}) })
			mc := 0.0
			for _, res := range results {
				if !res.Converged {
					t.Fatalf("%s/%s: trial did not converge", k.kern.Name(), tc.name)
				}
				mc += float64(res.Rounds)
			}
			mc /= trials
			// 4000 trials of a geometric-ish variable: allow 5 standard
			// errors ~ generous 8% relative tolerance plus slack for tiny
			// expectations.
			tol := 0.08*exact + 0.15
			if math.Abs(mc-exact) > tol {
				t.Fatalf("%s on %s: exact %.4f vs Monte-Carlo %.4f (tol %.3f)",
					k.kern.Name(), tc.name, exact, mc, tol)
			}
		}
	}
}

// Property: expected time is positive for any connected incomplete graph
// and zero exactly for complete ones.
func TestQuickExpectedTimePositive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(2) // 3 or 4 nodes keeps it fast
		g := gen.RandomTree(n, r)
		for i := 0; i < r.Intn(3); i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		e := ExpectedTime(g, PushKernel{})
		if g.IsComplete() {
			return e == 0
		}
		return e > 0.49 // at least one round, minus float slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Adding one edge toward completion cannot make things worse in *these
// specific* chain states... in general it CAN (that is the paper's
// non-monotonicity). Here we only check the paper's headline claim: there
// exists a connected G and spanning connected H ⊂ G with E[T(G)] > E[T(H)]
// under the push kernel on 4 nodes.
func TestNonMonotonicityExists(t *testing.T) {
	found := false
	n := 4
	complete := CompleteState(n)
	var pairs [][2]State
	for s := State(0); s <= complete; s++ {
		g := Decode(s, n)
		if !g.IsConnected() || g.IsComplete() {
			continue
		}
		// All spanning connected subgraphs H obtained by deleting one edge.
		for _, e := range g.Edges() {
			h := Decode(s&^(1<<PairIndex(n, e.U, e.V)), n)
			if h.IsConnected() {
				pairs = append(pairs, [2]State{s, Encode(h)})
			}
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no candidate pairs")
	}
	for _, p := range pairs {
		eg := ExpectedTime(Decode(p[0], n), PushKernel{})
		eh := ExpectedTime(Decode(p[1], n), PushKernel{})
		if eg > eh+1e-9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no non-monotone pair found on 4 nodes — contradicts Figure 1(c)")
	}
}

// The canonical witnesses exported by package gen must have the exact
// expected times documented there.
func TestCanonicalPairValues(t *testing.T) {
	g, h := gen.NonMonotonePair()
	eg := ExpectedTime(g, PushKernel{})
	eh := ExpectedTime(h, PushKernel{})
	if math.Abs(eg-2.53125) > 1e-9 {
		t.Fatalf("E[K4-e] = %v want 2.53125", eg)
	}
	if math.Abs(eh-2.0792) > 1e-3 {
		t.Fatalf("E[C4] = %v want ~2.0792", eh)
	}
	if eg <= eh {
		t.Fatal("non-monotone pair is monotone")
	}

	// Figure 1(c) literal reading: paw (4 edges) vs triangle (3 edges).
	paw := ExpectedTime(gen.Fig1cGraph(), PushKernel{})
	tri := ExpectedTime(gen.Fig1cSubgraph(), PushKernel{})
	if math.Abs(paw-4.78125) > 1e-9 {
		t.Fatalf("E[paw] = %v want 4.78125", paw)
	}
	if tri != 0 {
		t.Fatalf("E[triangle] = %v want 0", tri)
	}
}
