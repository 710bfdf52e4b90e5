package sim

import (
	"reflect"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// capturedDelta is a deep copy of the fields a RoundDelta emits per round,
// for stream comparison across driving styles.
type capturedDelta struct {
	round     int
	edges     []graph.Edge
	touched   []int32
	remaining int
}

// captureUndirected subscribes a deep copy of every round delta to dst.
func captureUndirected(dst *[]capturedDelta) stream.Subscriber {
	return stream.SubscriberFunc(func(e *stream.Event) {
		d := e.Delta
		*dst = append(*dst, capturedDelta{
			round:     d.Round,
			edges:     append([]graph.Edge(nil), d.NewEdges...),
			touched:   append([]int32(nil), d.Touched...),
			remaining: d.EdgesRemaining,
		})
	})
}

func deltasEqual(a, b []capturedDelta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.round != y.round || x.remaining != y.remaining ||
			len(x.edges) != len(y.edges) || len(x.touched) != len(y.touched) {
			return false
		}
		for j := range x.edges {
			if x.edges[j] != y.edges[j] {
				return false
			}
		}
		for j := range x.touched {
			if x.touched[j] != y.touched[j] {
				return false
			}
		}
	}
	return true
}

// TestSessionStepRunEquivalence: interleaving Step, RunUntil, and Run must
// reproduce the one-shot Run facade bit for bit — Result, final graph, and
// delta stream — for every engine family. This is the session API's core
// contract: stepping is a pure re-slicing of the same round sequence.
func TestSessionStepRunEquivalence(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		for _, mode := range []CommitMode{CommitSynchronous, CommitEager} {
			if mode == CommitEager && workers != 0 {
				continue // eager ignores Workers; one family is enough
			}
			var oneShot []capturedDelta
			g1 := gen.RandomTree(150, rng.New(77))
			cfg := Config{Workers: workers, Mode: mode}
			wantRes := runWith(g1, core.Push{}, rng.New(42), cfg, captureUndirected(&oneShot))
			if !wantRes.Converged {
				t.Fatalf("workers=%d mode=%v: one-shot did not converge", workers, mode)
			}

			var stepped []capturedDelta
			g2 := gen.RandomTree(150, rng.New(77))
			s := NewSession(g2, core.Push{}, rng.New(42), cfg)
			s.Subscribe(captureUndirected(&stepped))
			defer s.Close()
			// Interleave all three driving styles.
			for i := 0; i < 3; i++ {
				if d, _ := s.Step(); d == nil || d.Round != i+1 {
					t.Fatalf("workers=%d mode=%v: Step %d returned %+v", workers, mode, i+1, d)
				}
			}
			half := s.EdgesRemaining() / 2
			s.RunUntil(func(g *graph.Undirected) bool { return g.MissingEdges() <= half })
			if s.EdgesRemaining() > half {
				t.Fatalf("workers=%d mode=%v: RunUntil stopped early", workers, mode)
			}
			s.Step()
			s.Step()
			gotRes := s.Run()

			if gotRes != wantRes {
				t.Fatalf("workers=%d mode=%v: stepped result %+v != one-shot %+v", workers, mode, gotRes, wantRes)
			}
			if gotRes != s.Stats() || s.Round() != wantRes.Rounds || !s.Converged() {
				t.Fatalf("workers=%d mode=%v: accessors inconsistent with result", workers, mode)
			}
			if !g2.Equal(g1) {
				t.Fatalf("workers=%d mode=%v: final graphs differ", workers, mode)
			}
			if !deltasEqual(oneShot, stepped) {
				t.Fatalf("workers=%d mode=%v: delta streams differ (%d vs %d rounds)",
					workers, mode, len(oneShot), len(stepped))
			}
		}
	}
}

// TestDirectedSessionStepRunEquivalence is the directed analogue, covering
// the closure-tracking counters.
func TestDirectedSessionStepRunEquivalence(t *testing.T) {
	type captured struct {
		round, remaining int
		arcs             []graph.Arc
	}
	capture := func(dst *[]captured) stream.Subscriber {
		return stream.SubscriberFunc(func(e *stream.Event) {
			d := e.DirectedDelta
			*dst = append(*dst, captured{
				round:     d.Round,
				remaining: d.ClosureArcsRemaining,
				arcs:      append([]graph.Arc(nil), d.NewArcs...),
			})
		})
	}
	for _, workers := range []int{0, 1, 4} {
		var oneShot []captured
		g1 := gen.RandomStronglyConnected(96, 32, rng.New(9))
		cfg := DirectedConfig{Workers: workers}
		wantRes := runDirectedWith(g1, core.DirectedTwoHop{}, rng.New(43), cfg, capture(&oneShot))
		if !wantRes.Converged {
			t.Fatalf("workers=%d: one-shot directed run did not converge", workers)
		}

		var stepped []captured
		g2 := gen.RandomStronglyConnected(96, 32, rng.New(9))
		s := NewDirectedSession(g2, core.DirectedTwoHop{}, rng.New(43), cfg)
		s.Subscribe(capture(&stepped))
		defer s.Close()
		if s.Stats().TargetArcs != wantRes.TargetArcs {
			t.Fatalf("workers=%d: session target arcs %d != %d", workers, s.Stats().TargetArcs, wantRes.TargetArcs)
		}
		for i := 0; i < 5; i++ {
			if d, _ := s.Step(); d == nil || d.ClosureArcsRemaining != s.ClosureArcsRemaining() {
				t.Fatalf("workers=%d: Step %d delta inconsistent with accessor", workers, i+1)
			}
		}
		half := s.ClosureArcsRemaining() / 2
		s.RunUntil(func(*graph.Directed) bool { return s.ClosureArcsRemaining() <= half })
		gotRes := s.Run()

		if gotRes != wantRes {
			t.Fatalf("workers=%d: stepped directed result %+v != one-shot %+v", workers, gotRes, wantRes)
		}
		if s.ClosureArcsRemaining() != 0 || !s.Converged() {
			t.Fatalf("workers=%d: terminal accessors wrong", workers)
		}
		if !g2.Equal(g1) {
			t.Fatalf("workers=%d: final digraphs differ", workers)
		}
		if len(oneShot) != len(stepped) {
			t.Fatalf("workers=%d: stream lengths differ", workers)
		}
		for i := range oneShot {
			x, y := oneShot[i], stepped[i]
			if x.round != y.round || x.remaining != y.remaining || len(x.arcs) != len(y.arcs) {
				t.Fatalf("workers=%d round %d: deltas differ", workers, i+1)
			}
			for j := range x.arcs {
				if x.arcs[j] != y.arcs[j] {
					t.Fatalf("workers=%d round %d: arc %d differs", workers, i+1, j)
				}
			}
		}
	}
}

// TestAsyncSessionStepRunEquivalence: stepping the asynchronous session one
// parallel round at a time reproduces the RunAsync facade bit for bit,
// including the delta stream with its final partial round.
func TestAsyncSessionStepRunEquivalence(t *testing.T) {
	var oneShot []capturedDelta
	g1 := gen.Cycle(48)
	one := NewAsyncSession(g1, core.Push{}, rng.New(5), AsyncConfig{})
	one.Subscribe(captureUndirected(&oneShot))
	wantRes := one.Run()
	if !wantRes.Converged {
		t.Fatal("one-shot async run did not converge")
	}
	if facade := RunAsync(gen.Cycle(48), core.Push{}, rng.New(5), AsyncConfig{}); facade != wantRes {
		t.Fatalf("subscribed run %+v != RunAsync %+v", wantRes, facade)
	}

	var stepped []capturedDelta
	g2 := gen.Cycle(48)
	s := NewAsyncSession(g2, core.Push{}, rng.New(5), AsyncConfig{})
	s.Subscribe(captureUndirected(&stepped))
	steps := 0
	for {
		d, more := s.Step()
		if d != nil {
			steps++
		}
		if !more {
			break
		}
	}
	if got := s.Stats(); got != wantRes {
		t.Fatalf("stepped async result %+v != one-shot %+v", got, wantRes)
	}
	if !g2.Equal(g1) {
		t.Fatal("final graphs differ")
	}
	if !deltasEqual(oneShot, stepped) {
		t.Fatalf("async delta streams differ (%d vs %d)", len(oneShot), len(stepped))
	}
	if steps != len(stepped) {
		t.Fatalf("Step returned %d deltas, observer saw %d", steps, len(stepped))
	}
}

// TestSessionStepWithoutObserver: Step must hand back a correct delta even
// when nothing is subscribed.
func TestSessionStepWithoutObserver(t *testing.T) {
	g := gen.Path(32)
	s := NewSession(g, core.Push{}, rng.New(8), Config{})
	defer s.Close()
	prevNew := 0
	for round := 1; ; round++ {
		d, more := s.Step()
		if d == nil {
			break
		}
		if d.Round != round || d.Round != s.Round() {
			t.Fatalf("delta round %d, loop round %d, accessor %d", d.Round, round, s.Round())
		}
		if d.EdgesRemaining != s.EdgesRemaining() {
			t.Fatalf("round %d: delta remaining %d != accessor %d", round, d.EdgesRemaining, s.EdgesRemaining())
		}
		if got := s.Stats().NewEdges - prevNew; got != len(d.NewEdges) {
			t.Fatalf("round %d: stats new edges %d != delta %d", round, got, len(d.NewEdges))
		}
		prevNew = s.Stats().NewEdges
		if !more {
			break
		}
	}
	if !s.Converged() || !g.IsComplete() {
		t.Fatal("stepped run did not complete")
	}
	if d, more := s.Step(); d != nil || more {
		t.Fatal("Step after convergence must return (nil, false)")
	}
}

// TestSessionZeroAllocStep: once warm, a steady-state Step performs zero
// allocations on every engine family — including a bare Push or Pull on
// Workers 0 and 1, where the act is the process's ActRange and its block
// buffers must stay on the stack (K_70: two full blocks and a ragged one,
// every proposal a duplicate, so the lists have stopped growing) — and the
// churn runtime's Crashed{Push} and CrashedPull on a membership-tracked
// session, whose acts are the masked block forms. Skipped under -race,
// which instruments allocations.
func TestSessionZeroAllocStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	never := func(*graph.Undirected) bool { return false }
	alive := make([]bool, 70)
	for u := range alive {
		alive[u] = u%4 != 1
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Undirected
		p       core.Process
		workers []int
		members []bool // the TrackMembership mask, if any
	}{
		{"fixed-probe", gen.Star(64), fixedProbe{}, []int{0, 1, 4}, nil},
		{"push", gen.Complete(70), core.Push{}, []int{0, 1}, nil},
		{"pull", gen.Complete(70), core.Pull{}, []int{0, 1}, nil},
		{"crashed-push", gen.Complete(70), core.Crashed{Inner: core.Push{}, Alive: alive}, []int{0, 1}, alive},
		{"crashed-pull", gen.Complete(70), core.CrashedPull{Alive: alive}, []int{0, 1}, alive},
	} {
		for _, workers := range tc.workers {
			s := NewSession(tc.g.Clone(), tc.p, rng.New(1), Config{Workers: workers, MaxRounds: -1, Done: never})
			if tc.members != nil {
				s.TrackMembership(tc.members)
			}
			for i := 0; i < 50; i++ { // warm the buffers and the delta state
				s.Step()
			}
			if extra := testing.AllocsPerRun(200, func() { s.Step() }); extra > 0 {
				t.Errorf("%s, Workers=%d: steady-state Step allocates %v", tc.name, workers, extra)
			}
			if s.Stats().Proposals == 0 {
				t.Errorf("%s, Workers=%d: no proposals, so the steps measured nothing", tc.name, workers)
			}
			s.Close()
		}
	}
}

// TestDirectedSessionZeroAllocStep: the same for a bare DirectedTwoHop, whose
// act is DirectedTwoHop.ActRange into the round buffer (Workers 0) or the
// shard's arc buffer (Workers 1). On the complete digraph on 70 nodes every
// walk lands on a known arc or on its own start.
func TestDirectedSessionZeroAllocStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const n = 70
	g := graph.NewDirected(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			g.AddArc(u, v)
		}
	}
	never := func(*graph.Directed) bool { return false }
	for _, workers := range []int{0, 1} {
		s := NewDirectedSession(g.Clone(), core.DirectedTwoHop{}, rng.New(1), DirectedConfig{Workers: workers, MaxRounds: -1, Done: never})
		for i := 0; i < 50; i++ {
			s.Step()
		}
		if extra := testing.AllocsPerRun(200, func() { s.Step() }); extra > 0 {
			t.Errorf("Workers=%d: steady-state Step allocates %v", workers, extra)
		}
		if s.Stats().Proposals == 0 {
			t.Errorf("Workers=%d: no proposals, so the steps measured nothing", workers)
		}
		s.Close()
	}
}

// rangeActorsListed is the body of the two tests below: of procs — one value
// of every type of one substrate with an Act — exactly the types on list have
// the block form the round dispatches to. A wrapper that gained ActRange by
// embedding a walk would skip its own Act on the synchronous engines; it
// fails here until it is put on that list, which is where that gets decided.
func rangeActorsListed[G any, P pair](t *testing.T, list []rangeActor[G, P], procs []core.ProcessOn[G]) {
	t.Helper()
	listed := map[reflect.Type]bool{}
	for _, p := range list {
		listed[reflect.TypeOf(p)] = true
	}
	for _, p := range procs {
		_, has := p.(rangeActor[G, P])
		if on := listed[reflect.TypeOf(p)]; has != on {
			t.Errorf("%T (%s): has ActRange %v, listed %v", p, p.Name(), has, on)
		}
	}
}

// TestRangeActorsListed covers core's undirected processes against round.go's
// rangeActors: Push, Pull and the churn runtime's Crashed (over any inner)
// and CrashedPull have the block form; every other wrapper does not.
func TestRangeActorsListed(t *testing.T) {
	alive := []bool{true, true}
	rangeActorsListed(t, rangeActors, []core.Process{
		core.Push{}, core.Pull{}, core.PushPull{},
		core.Wrap(core.Pull{}, core.Fail(0.5)),
		core.Wrap(core.Push{}, core.Participation(0.5)),
		core.Crashed{Inner: core.Push{}, Alive: alive},
		core.Crashed{Inner: core.Pull{}, Alive: alive},
		core.CrashedPull{Alive: alive},
		core.Byzantine{Target: -1}, core.Selfish{}, core.Silent{},
		core.Wrap(core.Push{}, core.Fail(0.5)),
		core.Wrap(core.Pull{}, core.Crash(alive)),
		core.NewPopulation(2, core.Push{}),
		core.NewPopulation(2, core.Pull{}),
	})
}

// TestDirectedRangeActorsListed is the directed instantiation, over
// directedRangeActors.
func TestDirectedRangeActorsListed(t *testing.T) {
	rangeActorsListed(t, directedRangeActors, []core.DirectedProcess{
		core.DirectedTwoHop{},
		core.ByzantineDirected{Target: -1}, core.SilentDirected{},
		core.WrapDirected(core.DirectedTwoHop{}, core.Fail(0.5)),
		core.WrapDirected(core.DirectedTwoHop{}, core.Crash([]bool{true, true})),
		core.NewDirectedPopulation(2, core.DirectedTwoHop{}),
	})
}

// TestSessionRunUntilIsBreakpoint: RunUntil must stop without finishing the
// session, and a pred already satisfied must execute nothing.
func TestSessionRunUntilBreakpoint(t *testing.T) {
	g := gen.Path(64)
	s := NewSession(g, core.Push{}, rng.New(3), Config{})
	defer s.Close()
	res := s.RunUntil(func(*graph.Undirected) bool { return true })
	if res.Rounds != 0 {
		t.Fatalf("satisfied pred still ran %d rounds", res.Rounds)
	}
	res = s.RunUntil(func(g *graph.Undirected) bool { return g.MinDegree() >= 3 })
	if res.Converged || g.IsComplete() {
		t.Fatal("RunUntil ran to completion")
	}
	if g.MinDegree() < 3 {
		t.Fatal("RunUntil stopped before its predicate")
	}
	// The session is still live: driving on converges normally.
	final := s.Run()
	if !final.Converged || !g.IsComplete() {
		t.Fatalf("post-RunUntil Run did not converge: %+v", final)
	}
}

// TestSessionMembership: incremental member/coverage accounting must match
// brute-force recomputation through joins, leaves, wiring, and rounds.
func TestSessionMembership(t *testing.T) {
	const n = 40
	g := gen.Cycle(n)
	alive := make([]bool, n)
	for u := 0; u < 24; u++ {
		alive[u] = true
	}
	s := NewSession(g, core.Crashed{Inner: core.Push{}, Alive: alive}, rng.New(6), Config{
		MaxRounds: -1,
		Done:      func(*graph.Undirected) bool { return false },
	})
	defer s.Close()
	s.TrackMembership(alive)

	check := func(stage string) {
		t.Helper()
		members, edges := 0, 0
		for u := 0; u < n; u++ {
			if !alive[u] {
				continue
			}
			members++
			for v := u + 1; v < n; v++ {
				if alive[v] && g.HasEdge(u, v) {
					edges++
				}
			}
		}
		if s.MemberCount() != members || s.MemberEdges() != edges {
			t.Fatalf("%s: session (%d members, %d edges) != scan (%d, %d)",
				stage, s.MemberCount(), s.MemberEdges(), members, edges)
		}
		want := 1.0
		if members >= 2 {
			want = float64(edges) / float64(members*(members-1)/2)
		}
		if s.Coverage() != want {
			t.Fatalf("%s: coverage %v != %v", stage, s.Coverage(), want)
		}
	}

	check("initial")
	s.RemoveNode(3)
	s.RemoveNode(10)
	check("after leaves")
	s.InsertNode(30)
	s.AddEdge(30, 0)
	s.AddEdge(30, 5)
	check("after join+wiring")
	d, _ := s.Step()
	if len(d.Joined) != 1 || d.Joined[0] != 30 || len(d.Left) != 2 {
		t.Fatalf("delta membership events wrong: joined %v left %v", d.Joined, d.Left)
	}
	if d.Members != s.MemberCount() || d.MemberEdges != s.MemberEdges() {
		t.Fatalf("delta counts (%d, %d) != session (%d, %d)",
			d.Members, d.MemberEdges, s.MemberCount(), s.MemberEdges())
	}
	check("after round")
	d, _ = s.Step()
	if len(d.Joined) != 0 || len(d.Left) != 0 {
		t.Fatalf("membership events not cleared: %v / %v", d.Joined, d.Left)
	}
	for i := 0; i < 20; i++ {
		s.Step()
	}
	check("after 20 rounds")
}

// TestSessionUnfinishClearsConverged: a membership mutation on a finished
// session must clear the Converged claim too — if the resumed run then
// exhausts its budget without the predicate firing again, it must not keep
// reporting convergence.
func TestSessionUnfinishClearsConverged(t *testing.T) {
	// 6 wired members in an 8-slot pool; Done is full member coverage.
	g := graph.NewUndirected(8)
	for _, e := range gen.Complete(6).Edges() {
		g.AddEdge(e.U, e.V)
	}
	alive := make([]bool, 8)
	for u := 0; u < 6; u++ {
		alive[u] = true
	}
	var s *Session
	s = NewSession(g, core.Crashed{Inner: core.Push{}, Alive: alive}, rng.New(5), Config{
		MaxRounds: 2,
		Done:      func(*graph.Undirected) bool { return s.Coverage() == 1 },
	})
	defer s.Close()
	s.TrackMembership(alive)
	if res := s.Run(); !res.Converged {
		t.Fatalf("complete-membership run did not converge immediately: %+v", res)
	}
	// An isolated joiner drops coverage below 1 and, with no contacts, can
	// never be gossiped about: the 2-round budget must run out unconverged.
	s.InsertNode(6)
	if s.Converged() {
		t.Fatal("Converged still true right after mutation")
	}
	if res := s.Run(); res.Converged || s.Converged() {
		t.Fatalf("budget-exhausted resumed run still claims convergence: %+v", res)
	}
}

// TestAsyncSessionUnboundedBudget: MaxTicks < 0 means unbounded, mirroring
// Config.MaxRounds for open-ended stepping.
func TestAsyncSessionUnboundedBudget(t *testing.T) {
	g := gen.Cycle(16)
	s := NewAsyncSession(g, core.Push{}, rng.New(2), AsyncConfig{
		MaxTicks: -1,
		Done:     func(*graph.Undirected) bool { return false },
	})
	// Far beyond the default budget would be too slow to prove; instead
	// check it steps past a tiny explicit budget's worth of ticks without
	// finishing.
	for i := 0; i < 50; i++ {
		if _, more := s.Step(); !more {
			t.Fatalf("unbounded async session finished at tick %d", s.Stats().Ticks)
		}
	}
	if s.Stats().Ticks != 50*16 {
		t.Fatalf("ticks %d want %d", s.Stats().Ticks, 50*16)
	}
}

// TestSessionDeltaCoversInjectedEdges: edges wired between steps with
// AddEdge must appear in the next round's delta, so an incremental
// consumer rebuilding degrees and edge counts from the stream alone never
// drifts from the graph (the churn join path depends on this).
func TestSessionDeltaCoversInjectedEdges(t *testing.T) {
	const n = 32
	g := gen.Cycle(16) // 16 wired members in a 32-slot pool
	pool := graph.NewUndirected(n)
	for _, e := range g.Edges() {
		pool.AddEdge(e.U, e.V)
	}
	alive := make([]bool, n)
	for u := 0; u < 16; u++ {
		alive[u] = true
	}
	s := NewSession(pool, core.Crashed{Inner: core.Push{}, Alive: alive}, rng.New(9), Config{
		MaxRounds: -1,
		Done:      func(*graph.Undirected) bool { return false },
	})
	defer s.Close()
	s.TrackMembership(alive)

	// Incremental consumer state, rebuilt purely from deltas.
	deg := make([]int32, n)
	for u := 0; u < n; u++ {
		deg[u] = int32(pool.Degree(u))
	}
	edges := pool.M()

	r := rng.New(10)
	next := 16
	for round := 0; round < 60; round++ {
		if round%5 == 2 && next < n {
			// Join with bootstrap wiring between steps, churn-style.
			s.InsertNode(next)
			for k := 0; k < 3; k++ {
				s.AddEdge(next, r.Intn(16))
			}
			next++
		}
		d, _ := s.Step()
		edges += len(d.NewEdges)
		for _, u := range d.Touched {
			deg[u] += d.DegreeInc[u]
		}
	}
	if edges != pool.M() {
		t.Fatalf("delta stream edge count %d != graph %d", edges, pool.M())
	}
	for u := 0; u < n; u++ {
		if int(deg[u]) != pool.Degree(u) {
			t.Fatalf("node %d: delta-rebuilt degree %d != graph %d", u, deg[u], pool.Degree(u))
		}
	}
}

// TestSessionCloseStopsStepping: Close is idempotent and a closed session
// refuses to step.
func TestSessionCloseStopsStepping(t *testing.T) {
	g := gen.Path(80)
	s := NewSession(g, core.Push{}, rng.New(2), Config{Workers: 4})
	s.Step()
	s.Close()
	s.Close()
	if d, more := s.Step(); d != nil || more {
		t.Fatal("closed session stepped")
	}
}
