package sim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// This file tests the dense-phase engine mode (Config.DensePhase /
// DirectedConfig.DensePhase): the complement-sampling act phase, its
// determinism contract (bit-identical for every Workers >= 1, step-vs-run
// equivalent, goldens of its own while DensePhase off stays bit-compatible
// with the legacy goldens), and the membership-accounting fixes that ride
// along (membership-aware EdgesRemaining, leave/rejoin counter audit).

// TestDenseSessionStepRunEquivalence mirrors TestSessionStepRunEquivalence
// with the dense phase armed: interleaving Step, RunUntil, and Run must
// reproduce the one-shot facade bit for bit — Result, final graph, and
// delta stream — for every engine family, including rounds on both sides
// of the dense switch.
func TestDenseSessionStepRunEquivalence(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		var oneShot []capturedDelta
		g1 := gen.RandomTree(150, rng.New(77))
		cfg := Config{Workers: workers, DensePhase: 0.3}
		wantRes := runWith(g1, core.Push{}, rng.New(42), cfg, captureUndirected(&oneShot))
		if !wantRes.Converged {
			t.Fatalf("workers=%d: one-shot dense run did not converge", workers)
		}

		var stepped []capturedDelta
		g2 := gen.RandomTree(150, rng.New(77))
		s := NewSession(g2, core.Push{}, rng.New(42), cfg)
		s.Subscribe(captureUndirected(&stepped))
		defer s.Close()
		for i := 0; i < 3; i++ {
			if d, _ := s.Step(); d == nil || d.Round != i+1 {
				t.Fatalf("workers=%d: Step %d returned %+v", workers, i+1, d)
			}
		}
		// Drive into the dense phase through RunUntil, then keep stepping.
		s.RunUntil(func(*graph.Undirected) bool { return s.InDensePhase() })
		if !s.InDensePhase() {
			t.Fatalf("workers=%d: session never entered the dense phase", workers)
		}
		s.Step()
		s.Step()
		gotRes := s.Run()

		if gotRes != wantRes {
			t.Fatalf("workers=%d: stepped dense result %+v != one-shot %+v", workers, gotRes, wantRes)
		}
		if !g2.Equal(g1) {
			t.Fatalf("workers=%d: final graphs differ", workers)
		}
		if !deltasEqual(oneShot, stepped) {
			t.Fatalf("workers=%d: dense delta streams differ (%d vs %d rounds)",
				workers, len(oneShot), len(stepped))
		}
	}
}

// TestDenseDeterminismAcrossWorkers: with the dense phase armed, results
// stay bit-identical for every Workers >= 1 — the dense act runs per shard
// on the shard's own stream, so the worker count remains a pure
// performance knob.
func TestDenseDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) (Result, *graph.Undirected) {
		g := gen.RandomTree(200, rng.New(77))
		res := Run(g, core.Push{}, rng.New(42), Config{Workers: workers, DensePhase: 0.4})
		return res, g
	}
	baseRes, baseG := run(1)
	if !baseRes.Converged || !baseG.IsComplete() {
		t.Fatalf("dense run did not converge: %+v", baseRes)
	}
	for _, w := range []int{2, 8} {
		res, g := run(w)
		if res != baseRes {
			t.Fatalf("Workers=%d dense result %+v != Workers=1 %+v", w, res, baseRes)
		}
		if !g.Equal(baseG) {
			t.Fatalf("Workers=%d dense final graph differs from Workers=1", w)
		}
	}
}

// TestDenseDeterminismAcrossWorkersDirected repeats the contract for the
// directed dense phase, including the closure counters.
func TestDenseDeterminismAcrossWorkersDirected(t *testing.T) {
	run := func(workers int) (DirectedResult, *graph.Directed) {
		g := gen.RandomStronglyConnected(96, 32, rng.New(9))
		res := RunDirected(g, core.DirectedTwoHop{}, rng.New(43),
			DirectedConfig{Workers: workers, DensePhase: 0.5})
		return res, g
	}
	baseRes, baseG := run(1)
	if !baseRes.Converged {
		t.Fatalf("directed dense run did not converge: %+v", baseRes)
	}
	for _, w := range []int{2, 8} {
		res, g := run(w)
		if res != baseRes || !g.Equal(baseG) {
			t.Fatalf("Workers=%d directed dense diverged: %+v vs %+v", w, res, baseRes)
		}
	}
}

// TestDenseDeltaStreamDeterministicAcrossWorkers: the whole dense-mode
// delta stream — not just the terminal Result — is bit-identical for every
// Workers >= 1.
func TestDenseDeltaStreamDeterministicAcrossWorkers(t *testing.T) {
	capture := func(workers int) []capturedDelta {
		var out []capturedDelta
		g := gen.Cycle(150)
		res := runWith(g, core.Pull{}, rng.New(5),
			Config{Workers: workers, DensePhase: 0.3}, captureUndirected(&out))
		if !res.Converged {
			t.Fatalf("workers=%d dense pull run did not converge", workers)
		}
		return out
	}
	base := capture(1)
	for _, w := range []int{2, 8} {
		if got := capture(w); !deltasEqual(base, got) {
			t.Fatalf("Workers=%d dense delta stream differs from Workers=1", w)
		}
	}
}

// TestDenseGoldens pins the dense trajectory for both engine families —
// the dense phase has goldens of its own, exactly as the legacy engines
// do (TestDeterminismSequentialPathUnchanged). If these values move, the
// dense sampling order has changed.
func TestDenseGoldens(t *testing.T) {
	goldens := []struct {
		workers int
		want    Result
	}{
		{0, Result{Rounds: 43, Converged: true, Proposals: 1183, NewEdges: 464, DuplicateProposals: 719}},
		{1, Result{Rounds: 40, Converged: true, Proposals: 1127, NewEdges: 464, DuplicateProposals: 663}},
	}
	for _, gd := range goldens {
		g := gen.Cycle(32)
		res := Run(g, core.Push{}, rng.New(1), Config{Workers: gd.workers, DensePhase: 0.25})
		if res != gd.want {
			t.Fatalf("workers=%d: dense golden moved: got %+v want %+v", gd.workers, res, gd.want)
		}
		if !g.IsComplete() {
			t.Fatalf("workers=%d: dense run did not complete the graph", gd.workers)
		}
	}
	directed := []struct {
		workers int
		want    DirectedResult
	}{
		{0, DirectedResult{Rounds: 30, Converged: true, Proposals: 686, NewArcs: 528, DuplicateProposals: 158, TargetArcs: 552}},
		{1, DirectedResult{Rounds: 32, Converged: true, Proposals: 706, NewArcs: 528, DuplicateProposals: 178, TargetArcs: 552}},
	}
	for _, gd := range directed {
		g := gen.DirectedCycle(24)
		res := RunDirected(g, core.DirectedTwoHop{}, rng.New(2),
			DirectedConfig{Workers: gd.workers, DensePhase: 0.5})
		if res != gd.want {
			t.Fatalf("directed workers=%d: dense golden moved: got %+v want %+v", gd.workers, res, gd.want)
		}
	}
}

// TestDenseOffKeepsLegacyGolden: with DensePhase zero the sequential
// engine must keep producing the exact seed-release trajectory — arming
// logic must not perturb the legacy paths.
func TestDenseOffKeepsLegacyGolden(t *testing.T) {
	g := gen.Cycle(32)
	res := Run(g, core.Push{}, rng.New(1), Config{DensePhase: 0})
	want := Result{Rounds: 151, Converged: true, Proposals: 4526, NewEdges: 464, DuplicateProposals: 4062}
	if res != want {
		t.Fatalf("DensePhase=0 diverged from the legacy golden: got %+v want %+v", res, want)
	}
}

// TestDenseConvergesFaster: the point of the mode — on a late-phase-heavy
// workload the dense engine must converge in far fewer rounds than the
// scan-all-nodes act (the benchmark suite quantifies wall-clock; this
// pins the round-count collapse so a regression cannot hide behind fast
// hardware).
func TestDenseConvergesFaster(t *testing.T) {
	def := Run(gen.Cycle(256), core.Push{}, rng.New(3), Config{Workers: 1})
	den := Run(gen.Cycle(256), core.Push{}, rng.New(3), Config{Workers: 1, DensePhase: 0.25})
	if !def.Converged || !den.Converged {
		t.Fatalf("runs did not converge: default %+v dense %+v", def, den)
	}
	if den.Rounds*2 >= def.Rounds {
		t.Fatalf("dense mode not faster: %d rounds vs default %d", den.Rounds, def.Rounds)
	}
}

// TestDensePhaseValidation: fractions outside [0, 1] panic at
// construction, for both session families.
func TestDensePhaseValidation(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DensePhase %v did not panic", frac)
				}
			}()
			NewSession(gen.Path(8), core.Push{}, rng.New(1), Config{DensePhase: frac})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("directed DensePhase %v did not panic", frac)
				}
			}()
			NewDirectedSession(gen.DirectedCycle(8), core.DirectedTwoHop{}, rng.New(1),
				DirectedConfig{DensePhase: frac})
		}()
	}
}

// TestDenseEagerIgnored: CommitEager is inherently sequential and ignores
// the dense phase, exactly as it ignores Workers.
func TestDenseEagerIgnored(t *testing.T) {
	run := func(dense float64) (Result, *graph.Undirected) {
		g := gen.Cycle(64)
		res := Run(g, core.Push{}, rng.New(3), Config{Mode: CommitEager, DensePhase: dense})
		return res, g
	}
	baseRes, baseG := run(0)
	res, g := run(0.5)
	if res != baseRes || !g.Equal(baseG) {
		t.Fatalf("eager run with DensePhase diverged: %+v vs %+v", res, baseRes)
	}
}

// TestDenseDirectedStaysInsideClosure: every arc a dense directed run
// inserts is an arc of the initial graph's transitive closure — the dense
// sampler must not let the run escape the invariant the termination
// counter is built on.
func TestDenseDirectedStaysInsideClosure(t *testing.T) {
	g := gen.RandomStronglyConnected(64, 24, rng.New(4))
	target := g.TransitiveClosure()
	res := RunDirected(g, core.DirectedTwoHop{}, rng.New(5),
		DirectedConfig{Workers: 2, DensePhase: 1})
	if !res.Converged {
		t.Fatalf("dense-from-round-1 directed run did not converge: %+v", res)
	}
	for _, a := range g.Arcs() {
		if !target[a.U].Test(a.V) {
			t.Fatalf("dense run inserted arc (%d,%d) outside the initial closure", a.U, a.V)
		}
	}
	if !g.IsClosed() {
		t.Fatal("dense directed run did not reach closure")
	}
	g.CheckInvariants()
}

// TestDenseMissingDegreeDeltaViews: the O(1) per-node complement views on
// the deltas agree with brute-force recounts at every round, for both
// session families.
func TestDenseMissingDegreeDeltaViews(t *testing.T) {
	g := gen.Cycle(48)
	s := NewSession(g, core.Push{}, rng.New(6), Config{Workers: 2, DensePhase: 0.5})
	defer s.Close()
	for {
		d, more := s.Step()
		if d == nil {
			break
		}
		if d.MissingDegree == nil {
			t.Fatal("delta MissingDegree view not bound")
		}
		for u := 0; u < g.N(); u += 7 {
			got, want := d.MissingDegree(u), g.N()-1-g.Degree(u)
			if got != want {
				t.Fatalf("round %d node %d: delta MissingDegree %d want %d", d.Round, u, got, want)
			}
			if s.MissingDegree(u) != got {
				t.Fatalf("round %d node %d: session and delta views disagree", d.Round, u)
			}
		}
		if !more {
			break
		}
	}

	dg := gen.RandomStronglyConnected(48, 16, rng.New(7))
	target := dg.TransitiveClosure()
	ds := NewDirectedSession(dg, core.DirectedTwoHop{}, rng.New(8),
		DirectedConfig{Workers: 2, DensePhase: 0.5})
	defer ds.Close()
	for {
		d, more := ds.Step()
		if d == nil {
			break
		}
		if d.MissingClosureDegree == nil {
			t.Fatal("directed delta MissingClosureDegree view not bound")
		}
		total := 0
		for u := 0; u < dg.N(); u++ {
			want := target[u].DiffCount(dg.OutRow(u))
			if got := d.MissingClosureDegree(u); got != want {
				t.Fatalf("round %d node %d: MissingClosureDegree %d want %d", d.Round, u, got, want)
			}
			total += want
		}
		if total != ds.ClosureArcsRemaining() {
			t.Fatalf("round %d: per-node missing sum %d != ClosureArcsRemaining %d",
				d.Round, total, ds.ClosureArcsRemaining())
		}
		if !more {
			break
		}
	}
}

// TestDenseZeroAllocStep: the dense act keeps the zero-allocation
// steady-state contract on every engine family.
func TestDenseZeroAllocStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, workers := range []int{0, 1, 4} {
		g := gen.Star(64)
		s := NewSession(g, core.Push{}, rng.New(1),
			Config{Workers: workers, MaxRounds: -1, DensePhase: 1, Done: func(*graph.Undirected) bool { return false }})
		for i := 0; i < 50; i++ {
			s.Step()
		}
		if !s.InDensePhase() {
			t.Fatalf("Workers=%d: DensePhase=1 session not in dense phase", workers)
		}
		if extra := testing.AllocsPerRun(200, func() { s.Step() }); extra > 0 {
			t.Errorf("Workers=%d: steady-state dense Step allocates %v", workers, extra)
		}
		s.Close()
	}
}

// TestDenseMembershipSkipsDeparted: with membership tracking active, the
// dense sampler must never wire a departed node — departed identities
// neither gossip nor accept connections.
func TestDenseMembershipSkipsDeparted(t *testing.T) {
	const n = 64
	g := gen.Cycle(n)
	alive := make([]bool, n)
	for u := 0; u < n; u++ {
		alive[u] = true
	}
	s := NewSession(g, core.Crashed{Inner: core.Push{}, Alive: alive}, rng.New(9), Config{
		Workers:    2,
		MaxRounds:  -1,
		DensePhase: 1,
		Done:       func(*graph.Undirected) bool { return false },
	})
	defer s.Close()
	s.TrackMembership(alive)
	s.RemoveNode(10)
	s.RemoveNode(11)
	deg10, deg11 := g.Degree(10), g.Degree(11)
	for i := 0; i < 40; i++ {
		s.Step()
	}
	if g.Degree(10) != deg10 || g.Degree(11) != deg11 {
		t.Fatalf("dense rounds grew departed nodes: deg(10) %d→%d, deg(11) %d→%d",
			deg10, g.Degree(10), deg11, g.Degree(11))
	}
}

// TestEdgesRemainingMembershipAware is the satellite-1 regression test:
// with membership tracking active, Session.EdgesRemaining and
// RoundDelta.EdgesRemaining must count only current-member pairs — pairs
// involving departed nodes are not outstanding work. Before the fix both
// reported the complement over all n slots, so churn consumers chased
// pairs no process could ever close.
func TestEdgesRemainingMembershipAware(t *testing.T) {
	const n = 24
	g := gen.Cycle(n)
	alive := make([]bool, n)
	for u := 0; u < n; u++ {
		alive[u] = true
	}
	s := NewSession(g, core.Crashed{Inner: core.Push{}, Alive: alive}, rng.New(4), Config{
		MaxRounds: -1,
		Done:      func(*graph.Undirected) bool { return false },
	})
	defer s.Close()
	s.TrackMembership(alive)

	brute := func() int {
		missing := 0
		for u := 0; u < n; u++ {
			if !alive[u] {
				continue
			}
			for v := u + 1; v < n; v++ {
				if alive[v] && !g.HasEdge(u, v) {
					missing++
				}
			}
		}
		return missing
	}

	if got, want := s.EdgesRemaining(), brute(); got != want {
		t.Fatalf("initial EdgesRemaining %d want %d", got, want)
	}
	s.RemoveNode(0)
	s.RemoveNode(7)
	if got, want := s.EdgesRemaining(), brute(); got != want {
		t.Fatalf("after leaves: EdgesRemaining %d want %d (graph-wide complement is %d)",
			got, want, g.MissingEdges())
	}
	if s.EdgesRemaining() >= g.MissingEdges() {
		t.Fatal("membership-aware count must exclude departed pairs, so it must be smaller")
	}
	if got := s.MemberEdgesRemaining(); got != s.EdgesRemaining() {
		t.Fatalf("MemberEdgesRemaining %d != EdgesRemaining %d", got, s.EdgesRemaining())
	}
	d, _ := s.Step()
	if d.EdgesRemaining != brute() {
		t.Fatalf("delta EdgesRemaining %d want %d", d.EdgesRemaining, brute())
	}
	// Without membership tracking the accessor keeps its graph-wide meaning,
	// and MemberEdgesRemaining refuses to answer.
	plain := NewSession(gen.Path(8), core.Push{}, rng.New(1), Config{})
	defer plain.Close()
	if plain.EdgesRemaining() != plain.Graph().MissingEdges() {
		t.Fatal("untracked session EdgesRemaining changed meaning")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MemberEdgesRemaining without TrackMembership did not panic")
			}
		}()
		plain.MemberEdgesRemaining()
	}()
}

// TestMembershipCountersProperty is the satellite-3 audit: after any
// random sequence of joins, fail-stop leaves, rejoins, bootstrap wirings,
// and committed rounds (dense and default), every incrementally maintained
// membership counter — members, member edges, member pairs remaining — and
// the per-node missing-degree views must equal a brute-force recount. In
// particular a node that leaves and later rejoins must not double-count
// the pairs it re-enters with. The property runs on both row backends:
// the membership counters lean on the graph's complement views, which is
// exactly where the sparse substrate changes representation.
func TestMembershipCountersProperty(t *testing.T) {
	for _, backend := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
		testMembershipCountersProperty(t, backend)
	}
}

func testMembershipCountersProperty(t *testing.T, backend graph.Backend) {
	const n = 48
	for _, dense := range []float64{0, 1} {
		g := gen.Cycle(n, backend)
		alive := make([]bool, n)
		for u := 0; u < n; u++ {
			alive[u] = u < 32
		}
		s := NewSession(g, core.Crashed{Inner: core.Push{}, Alive: alive}, rng.New(21), Config{
			Workers:    2,
			MaxRounds:  -1,
			DensePhase: dense,
			Done:       func(*graph.Undirected) bool { return false },
		})
		s.TrackMembership(alive)

		check := func(step int) {
			t.Helper()
			members, edges, missing := 0, 0, 0
			for u := 0; u < n; u++ {
				if md, want := s.MissingDegree(u), n-1-g.Degree(u); md != want {
					t.Fatalf("dense=%v step %d: MissingDegree(%d) %d want %d", dense, step, u, md, want)
				}
				if !alive[u] {
					continue
				}
				members++
				for v := u + 1; v < n; v++ {
					if !alive[v] {
						continue
					}
					if g.HasEdge(u, v) {
						edges++
					} else {
						missing++
					}
				}
			}
			if s.MemberCount() != members || s.MemberEdges() != edges {
				t.Fatalf("%v dense=%v step %d: counters (%d members, %d edges) != recount (%d, %d)",
					backend, dense, step, s.MemberCount(), s.MemberEdges(), members, edges)
			}
			if s.EdgesRemaining() != missing || s.MemberEdgesRemaining() != missing {
				t.Fatalf("dense=%v step %d: remaining %d/%d != recount %d",
					dense, step, s.EdgesRemaining(), s.MemberEdgesRemaining(), missing)
			}
			g.CheckInvariants()
		}

		r := rng.New(1234)
		check(-1)
		for step := 0; step < 120; step++ {
			switch r.Intn(4) {
			case 0: // leave a random member (keep at least two)
				if s.MemberCount() > 2 {
					u := r.Intn(n)
					for !alive[u] {
						u = (u + 1) % n
					}
					s.RemoveNode(u)
				}
			case 1: // join or REJOIN a random departed slot — the double-count trap
				if s.MemberCount() == n {
					continue
				}
				u := r.Intn(n)
				for alive[u] {
					u = (u + 1) % n
				}
				s.InsertNode(u)
				// Bootstrap wiring, possibly duplicating existing stale edges.
				for k := 0; k < 2; k++ {
					s.AddEdge(u, r.Intn(n))
				}
			case 2: // wire an arbitrary pair between steps
				s.AddEdge(r.Intn(n), r.Intn(n))
			default:
				s.Step()
			}
			check(step)
		}
		s.Close()
	}
}

// TestDirectedMissingRowProperty: the DirectedSession's per-node
// missing-closure counters equal a brute-force target &^ out recount after
// every committed round, dense and default, on both row backends. The
// brute-force side goes through OutRow — which on sparse is a materialized
// snapshot — so the test also pins that snapshot semantics stay correct.
func TestDirectedMissingRowProperty(t *testing.T) {
	for _, backend := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
		testDirectedMissingRowProperty(t, backend)
	}
}

func testDirectedMissingRowProperty(t *testing.T, backend graph.Backend) {
	for _, dense := range []float64{0, 0.6} {
		g := gen.RandomStronglyConnected(80, 30, rng.New(14), backend)
		target := g.TransitiveClosure()
		s := NewDirectedSession(g, core.DirectedTwoHop{}, rng.New(15),
			DirectedConfig{Workers: 2, DensePhase: dense})
		for {
			_, more := s.Step()
			total := 0
			for u := 0; u < g.N(); u++ {
				want := target[u].DiffCount(g.OutRow(u))
				if got := s.MissingClosureDegree(u); got != want {
					t.Fatalf("dense=%v round %d node %d: missing row %d want %d",
						dense, s.Round(), u, got, want)
				}
				total += want
			}
			if total != s.ClosureArcsRemaining() {
				t.Fatalf("dense=%v round %d: missing rows sum %d != counter %d",
					dense, s.Round(), total, s.ClosureArcsRemaining())
			}
			if !more {
				break
			}
		}
		if !s.Converged() {
			t.Fatalf("dense=%v: directed run did not converge", dense)
		}
		s.Close()
	}
}
