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

// This file tests membership tracking: the incrementally maintained
// member counters against a brute-force recount, the membership-aware
// remaining count, and between-step mutation on both row backends.

// tracked is a session of Crashed{Push} over g with membership tracked
// and nodes [0, members) alive. Without a Done in cfg it never finishes.
func tracked(g *graph.Undirected, members int, seed uint64, cfg Config) (*Session, []bool) {
	alive := make([]bool, g.N())
	for u := 0; u < members; u++ {
		alive[u] = true
	}
	if cfg.Done == nil {
		cfg.MaxRounds, cfg.Done = -1, func(*graph.Undirected) bool { return false }
	}
	s := NewSession(g, core.Crashed{Inner: core.Push{}, Alive: alive}, rng.New(seed), cfg)
	s.TrackMembership(alive)
	return s, alive
}

// recount is a brute-force scan of the member count, the member-member
// edges and the member pairs still missing.
func recount(g *graph.Undirected, alive []bool) (members, edges, missing int) {
	for u := range alive {
		if !alive[u] {
			continue
		}
		members++
		for v := u + 1; v < len(alive); v++ {
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
	return members, edges, missing
}

// checkMembers requires every membership counter of s — members, member
// edges, remaining and member remaining pairs, coverage — and every
// node's missing degree to equal a recount, and the graph to be sound.
func checkMembers(t *testing.T, stage string, s *Session, alive []bool) {
	t.Helper()
	g := s.Graph()
	members, edges, missing := recount(g, alive)
	coverage := 1.0
	if members >= 2 {
		coverage = float64(edges) / float64(members*(members-1)/2)
	}
	got := [...]any{s.MemberCount(), s.MemberEdges(), s.EdgesRemaining(), s.MemberEdgesRemaining(), s.Coverage()}
	if want := [...]any{members, edges, missing, missing, coverage}; got != want {
		t.Fatalf("%s: members, member edges, remaining, member remaining, coverage %v, recount %v", stage, got, want)
	}
	for u := range alive {
		if md, want := s.MissingDegree(u), g.N()-1-g.Degree(u); md != want {
			t.Fatalf("%s: MissingDegree(%d) %d want %d", stage, u, md, want)
		}
	}
	g.CheckInvariants()
}

// TestSessionMembership: incremental member/coverage accounting must match
// brute-force recomputation through joins, leaves, wiring, and rounds, and
// the next delta reports the joins and leaves once.
func TestSessionMembership(t *testing.T) {
	s, alive := tracked(gen.Cycle(40), 24, 6, Config{})
	defer s.Close()
	checkMembers(t, "initial", s, alive)
	s.RemoveNode(3)
	s.RemoveNode(10)
	checkMembers(t, "after leaves", s, alive)
	s.InsertNode(30)
	s.AddEdge(30, 0)
	s.AddEdge(30, 5)
	checkMembers(t, "after join+wiring", s, alive)
	d, _ := s.Step()
	if len(d.Joined) != 1 || d.Joined[0] != 30 || len(d.Left) != 2 || d.Members != s.MemberCount() || d.MemberEdges != s.MemberEdges() {
		t.Fatalf("delta: joined %v left %v, counts (%d, %d), session (%d, %d)",
			d.Joined, d.Left, d.Members, d.MemberEdges, s.MemberCount(), s.MemberEdges())
	}
	checkMembers(t, "after round", s, alive)
	if d, _ = s.Step(); len(d.Joined) != 0 || len(d.Left) != 0 {
		t.Fatalf("membership events not cleared: %v / %v", d.Joined, d.Left)
	}
	for i := 0; i < 20; i++ {
		s.Step()
	}
	checkMembers(t, "after 20 rounds", s, alive)
}

// TestEdgesRemainingMembershipAware: with membership tracked,
// EdgesRemaining (session and delta) counts only current-member pairs, as
// no process can close a pair with a departed node. Without tracking it
// keeps its graph-wide meaning and MemberEdgesRemaining panics.
func TestEdgesRemainingMembershipAware(t *testing.T) {
	s, alive := tracked(gen.Cycle(24), 24, 4, Config{})
	defer s.Close()
	checkMembers(t, "initial", s, alive)
	s.RemoveNode(0)
	s.RemoveNode(7)
	checkMembers(t, "after leaves", s, alive)
	if s.EdgesRemaining() >= s.Graph().MissingEdges() {
		t.Fatal("membership-aware count must exclude departed pairs, so it must be smaller")
	}
	if d, _ := s.Step(); d.EdgesRemaining != s.EdgesRemaining() {
		t.Fatalf("delta EdgesRemaining %d, session %d", d.EdgesRemaining, s.EdgesRemaining())
	}
	checkMembers(t, "after a round", s, alive)
	plain := NewSession(gen.Path(8), core.Push{}, rng.New(1), Config{})
	defer plain.Close()
	if plain.EdgesRemaining() != plain.Graph().MissingEdges() {
		t.Fatal("untracked session EdgesRemaining changed meaning")
	}
	mustPanic(t, func() { plain.MemberEdgesRemaining() })
}

// membershipAudit drives a tracked session on a 48-cycle with 32 members
// through 120 random fail-stop leaves, joins and rejoins with bootstrap
// wiring, arbitrary wirings and rounds, checking every counter after each
// and the delta contract after every round. A node that leaves and later
// rejoins must not double-count the pairs it re-enters with. It returns
// the final graph and the fingerprint of the deltas.
func membershipAudit(t *testing.T, backend graph.Backend, dense float64) (*graph.Undirected, uint64) {
	const n = 48
	name := fmt.Sprintf("%v/dense=%v", backend, dense)
	s, alive := tracked(gen.Cycle(n, backend), 32, 21, Config{DensePhase: dense})
	defer s.Close()
	rt, fp := simtest.Undirected(s), simtest.NewFingerprint()
	inv := simtest.NewInvariants(t, name, rt)
	r := rng.New(1234)
	checkMembers(t, name, s, alive)
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
		case 1: // join or rejoin a random departed slot, with bootstrap wiring
			if s.MemberCount() == n {
				continue
			}
			u := r.Intn(n)
			for alive[u] {
				u = (u + 1) % n
			}
			s.InsertNode(u)
			for k := 0; k < 2; k++ {
				s.AddEdge(u, r.Intn(n))
			}
		case 2: // wire an arbitrary pair between steps
			s.AddEdge(r.Intn(n), r.Intn(n))
		default:
			e, _ := rt.Step()
			fp.OnEvent(e)
			inv.OnEvent(e)
		}
		checkMembers(t, fmt.Sprintf("%s step %d", name, step), s, alive)
	}
	return s.Graph(), fp.Sum
}

// TestMembershipCountersProperty: the counters survive any sequence of
// joins, leaves, rejoins, wirings and committed rounds, dense and default,
// on both row backends — the counters lean on the graph's complement
// views, which is where the sparse substrate changes representation.
func TestMembershipCountersProperty(t *testing.T) {
	for _, backend := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
		for _, dense := range []float64{0, 1} {
			membershipAudit(t, backend, dense)
		}
	}
}

// TestBackendSessionMembershipLockstep: the same mutation schedule on the
// dense and the sparse backend gives the same delta stream and graph.
func TestBackendSessionMembershipLockstep(t *testing.T) {
	for _, dense := range []float64{0, 1} {
		gd, hd := membershipAudit(t, graph.BackendDense, dense)
		gs, hs := membershipAudit(t, graph.BackendSparse, dense)
		if hd != hs || !gd.Equal(gs) {
			t.Fatalf("dense=%v: backends diverged under one mutation schedule (%#x vs %#x)", dense, hd, hs)
		}
	}
}

// TestDenseMembershipSkipsDeparted: with membership tracking active, the
// dense sampler must never wire a departed node — departed identities
// neither gossip nor accept connections.
func TestDenseMembershipSkipsDeparted(t *testing.T) {
	g := gen.Cycle(64)
	s, _ := tracked(g, 64, 9, Config{DensePhase: 1})
	defer s.Close()
	s.RemoveNode(10)
	s.RemoveNode(11)
	deg10, deg11 := g.Degree(10), g.Degree(11)
	for i := 0; i < 40; i++ {
		s.Step()
	}
	if g.Degree(10) != deg10 || g.Degree(11) != deg11 {
		t.Fatalf("dense rounds grew departed nodes: deg(10) %d→%d, deg(11) %d→%d", deg10, g.Degree(10), deg11, g.Degree(11))
	}
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
	var s *Session
	s, _ = tracked(g, 6, 5, Config{MaxRounds: 2, Done: func(*graph.Undirected) bool { return s.Coverage() == 1 }})
	defer s.Close()
	if res := s.Run(); !res.Converged {
		t.Fatalf("complete-membership run did not converge immediately: %+v", res)
	}
	// An isolated joiner drops coverage below 1 and, with no contacts, can
	// never be gossiped about: the 2-round budget must run out unconverged.
	s.InsertNode(6)
	if claimed, res := s.Converged(), s.Run(); claimed || res.Converged || s.Converged() {
		t.Fatalf("after the join: Converged %v, then the budget-exhausted run %+v", claimed, res)
	}
}

// TestSessionDeltaCoversInjectedEdges: edges wired between steps with
// AddEdge must appear in the next round's delta, so a consumer rebuilding
// the graph from the stream alone never drifts from it (the churn join
// path depends on this), and the deltas keep their contract across joins.
func TestSessionDeltaCoversInjectedEdges(t *testing.T) {
	const n = 32
	pool := graph.NewUndirected(n) // 16 wired members in a 32-slot pool
	for _, e := range gen.Cycle(16).Edges() {
		pool.AddEdge(e.U, e.V)
	}
	s, _ := tracked(pool, 16, 9, Config{})
	defer s.Close()
	s.Subscribe(shadow(t, pool.Clone()))
	s.Subscribe(simtest.NewInvariants(t, "injected", simtest.Undirected(s)))
	r := rng.New(10)
	for round, next := 0, 16; round < 60; round++ {
		if round%5 == 2 && next < n {
			// Join with bootstrap wiring between steps, churn-style.
			s.InsertNode(next)
			for k := 0; k < 3; k++ {
				s.AddEdge(next, r.Intn(16))
			}
			next++
		}
		s.Step()
	}
}
