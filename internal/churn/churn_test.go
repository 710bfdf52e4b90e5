package churn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

func base() Config {
	return Config{Capacity: 256, InitialMembers: 32, SeedDegree: 3, Rate: 0}
}

func TestNewSessionInitialState(t *testing.T) {
	s := NewSession(base(), rng.New(1))
	if s.Members() != 32 {
		t.Fatalf("members %d", s.Members())
	}
	if s.Round() != 0 || s.JoinsDropped() != 0 {
		t.Fatal("fresh session dirty")
	}
	for u := 0; u < 32; u++ {
		if !s.Alive(u) {
			t.Fatalf("initial member %d not alive", u)
		}
	}
	if s.Alive(32) {
		t.Fatal("unused slot alive")
	}
	// Initial members are connected among themselves.
	living := make([]int, 32)
	for i := range living {
		living[i] = i
	}
	if !s.Graph().InducedSubgraph(living).IsConnected() {
		t.Fatal("initial membership disconnected")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 8, InitialMembers: 1},
		{Capacity: 4, InitialMembers: 8},
		// Accepted, these Rates would hang the first Step (+Inf) or run
		// silently churn-free (NaN, -3).
		{Capacity: 8, InitialMembers: 4, Rate: math.Inf(1)},
		{Capacity: 8, InitialMembers: 4, Rate: math.NaN()},
		{Capacity: 8, InitialMembers: 4, Rate: -3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			NewSession(cfg, rng.New(1))
		}()
	}
}

// TestChurnSeriesGolden pins the draws of a churned run: an fnv-64 hash over
// every round's coverage bits, accepted-edge count and the ids it reports
// joined and left, for both processes on both backends. 600 slots are 18
// full 32-node blocks and a ragged one, most of them dead or not yet
// joined, so the act's liveness gating is on every path the hash covers.
// The constants were recorded before the churn round had a block form and
// must not move with it.
func TestChurnSeriesGolden(t *testing.T) {
	want := map[string]uint64{
		"push/dense":  0x8aa09f24770b2b9,
		"push/sparse": 0x8aa09f24770b2b9,
		"pull/dense":  0xd1103baedfd3883c,
		"pull/sparse": 0xd1103baedfd3883c,
	}
	for _, pull := range []bool{false, true} {
		for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
			cfg := base()
			cfg.Capacity, cfg.Rate, cfg.Pull, cfg.Backend = 600, 1.5, pull, b
			s := NewSession(cfg, rng.New(13))
			h := fnv.New64a()
			word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
			for range 400 {
				d := s.Step()
				word(math.Float64bits(s.Coverage()))
				word(uint64(len(d.NewEdges)))
				for _, ids := range [][]int32{d.Joined, d.Left} {
					word(uint64(len(ids)))
					for _, u := range ids {
						word(uint64(u))
					}
				}
			}
			name := map[bool]string{false: "push/", true: "pull/"}[pull] + b.String()
			if got := h.Sum64(); got != want[name] {
				t.Errorf("%s: series hash %#x, want %#x", name, got, want[name])
			}
		}
	}
}

func TestNoChurnReachesFullCoverage(t *testing.T) {
	for _, pull := range []bool{false, true} {
		cfg := base()
		cfg.Pull = pull
		s := NewSession(cfg, rng.New(2))
		cov := s.Run(3000)
		if cov[len(cov)-1] != 1 {
			t.Fatalf("pull=%v: coverage %.3f after %d rounds", pull, cov[len(cov)-1], len(cov))
		}
		// Coverage is monotone without churn.
		for i := 1; i < len(cov); i++ {
			if cov[i] < cov[i-1]-1e-12 {
				t.Fatalf("coverage decreased without churn at %d", i)
			}
		}
	}
}

func TestChurnKeepsPopulationStationary(t *testing.T) {
	cfg := base()
	cfg.Rate = 0.5
	s := NewSession(cfg, rng.New(3))
	s.Run(200)
	if s.Members() != 32 {
		t.Fatalf("population drifted to %d", s.Members())
	}
	if s.Round() != 200 {
		t.Fatalf("round %d", s.Round())
	}
}

func TestChurnDepressesCoverage(t *testing.T) {
	quiet := NewSession(base(), rng.New(4))
	quietCov := mean(quiet.Run(1200)[900:])

	noisy := base()
	noisy.Rate = 1.0
	noisy.Capacity = noisy.InitialMembers + 1300 // room for every join
	noisyS := NewSession(noisy, rng.New(4))
	noisyCov := mean(noisyS.Run(1200)[900:])
	if noisyS.JoinsDropped() != 0 {
		t.Fatalf("joins dropped despite capacity: %d", noisyS.JoinsDropped())
	}

	if quietCov < 0.999 {
		t.Fatalf("quiet steady-state coverage %.4f", quietCov)
	}
	if noisyCov >= quietCov {
		t.Fatalf("churn did not depress coverage: %.4f vs %.4f", noisyCov, quietCov)
	}
	if noisyCov < 0.2 {
		t.Fatalf("coverage collapsed under churn: %.4f", noisyCov)
	}
}

func TestSlotsNeverReused(t *testing.T) {
	cfg := base()
	cfg.Rate = 2
	cfg.Capacity = 64 // tight: joins must start failing
	s := NewSession(cfg, rng.New(5))
	s.Run(200)
	if s.JoinsDropped() == 0 {
		t.Fatal("expected dropped joins with tight capacity")
	}
	// Population shrinks once slots run out but never goes below 2.
	if s.Members() < 2 {
		t.Fatalf("membership collapsed to %d", s.Members())
	}
}

func TestDeadMembersGainNoEdges(t *testing.T) {
	cfg := base()
	cfg.Rate = 0.5
	s := NewSession(cfg, rng.New(6))
	// Track degrees of departed slots across steps.
	type snap struct{ slot, degree int }
	var dead []snap
	for i := 0; i < 300; i++ {
		s.Step()
		if i == 150 {
			for u := 0; u < s.Graph().N(); u++ {
				if u < s.cfg.Capacity && !s.Alive(u) && s.Graph().Degree(u) > 0 {
					dead = append(dead, snap{u, s.Graph().Degree(u)})
				}
			}
		}
	}
	if len(dead) == 0 {
		t.Fatal("no departed members observed")
	}
	for _, d := range dead {
		if s.Graph().Degree(d.slot) != d.degree {
			t.Fatalf("dead slot %d gained edges: %d -> %d",
				d.slot, d.degree, s.Graph().Degree(d.slot))
		}
	}
}

func TestCoverageTrivialForTinyMembership(t *testing.T) {
	s := NewSession(Config{Capacity: 8, InitialMembers: 2, SeedDegree: 1}, rng.New(7))
	if s.Coverage() != 1 {
		// Two initial members are wired by the ring constructor.
		t.Fatalf("2-member coverage %.2f", s.Coverage())
	}
}

// coverageByScan recomputes coverage the way pre-session releases did: a
// full O(members²) pair scan. It is the reference the incremental
// alive-edge tracking must match exactly.
func coverageByScan(s *Session) float64 {
	var members []int
	for u := 0; u < s.Graph().N(); u++ {
		if s.Alive(u) {
			members = append(members, u)
		}
	}
	m := len(members)
	if m < 2 {
		return 1
	}
	have := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if s.Graph().HasEdge(members[i], members[j]) {
				have++
			}
		}
	}
	return float64(have) / float64(m*(m-1)/2)
}

// TestIncrementalCoverageMatchesScan drives a churny session and checks the
// O(1) incremental coverage against the full pair scan after every round.
func TestIncrementalCoverageMatchesScan(t *testing.T) {
	for _, pull := range []bool{false, true} {
		cfg := base()
		cfg.Rate = 1.5
		cfg.Pull = pull
		s := NewSession(cfg, rng.New(11))
		for i := 0; i < 300; i++ {
			s.Step()
			if got, want := s.Coverage(), coverageByScan(s); got != want {
				t.Fatalf("pull=%v round %d: incremental coverage %v != scan %v", pull, i+1, got, want)
			}
		}
	}
}

// TestStepDeltaCarriesChurnEvents checks that the engine delta returned by
// Step surfaces the joins and leaves applied before the round, and that its
// membership counts match the session accessors.
func TestStepDeltaCarriesChurnEvents(t *testing.T) {
	cfg := base()
	cfg.Rate = 2
	s := NewSession(cfg, rng.New(12))
	joins, leaves := 0, 0
	for i := 0; i < 200; i++ {
		d := s.Step()
		if d == nil {
			t.Fatalf("round %d: nil delta", i+1)
		}
		joins += len(d.Joined)
		leaves += len(d.Left)
		if d.Members != s.Members() {
			t.Fatalf("round %d: delta members %d != session %d", i+1, d.Members, s.Members())
		}
		// A slot that joined and left within the same between-round batch
		// appears in both lists; otherwise liveness must match the event.
		left := map[int32]bool{}
		for _, u := range d.Left {
			left[u] = true
			if s.Alive(int(u)) {
				t.Fatalf("round %d: left node %d still alive", i+1, u)
			}
		}
		for _, u := range d.Joined {
			if !s.Alive(int(u)) && !left[u] {
				t.Fatalf("round %d: joined node %d not alive", i+1, u)
			}
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("no churn events observed in deltas: %d joins, %d leaves", joins, leaves)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestMemberEdgesRemainingExcludesDeparted is the membership-accounting
// regression test: the remaining-work count a churn consumer reads must
// cover only current-member pairs. Before the fix it was the complement
// over all capacity slots, so departed (and never-used) slots inflated it
// and it could never reach zero.
func TestMemberEdgesRemainingExcludesDeparted(t *testing.T) {
	cfg := base()
	cfg.Rate = 2
	s := NewSession(cfg, rng.New(7))
	for i := 0; i < 40; i++ {
		s.Step()
		members, edges := 0, 0
		g := s.Graph()
		for u := 0; u < cfg.Capacity; u++ {
			if !s.Alive(u) {
				continue
			}
			members++
			for v := u + 1; v < cfg.Capacity; v++ {
				if s.Alive(v) && g.HasEdge(u, v) {
					edges++
				}
			}
		}
		want := members*(members-1)/2 - edges
		if got := s.MemberEdgesRemaining(); got != want {
			t.Fatalf("round %d: MemberEdgesRemaining %d want %d (graph-wide complement %d)",
				s.Round(), got, want, g.MissingEdges())
		}
		// The graph-wide complement counts pairs on departed and unused
		// slots; with churn active it must exceed the member-pair count.
		if s.Round() > 5 && s.MemberEdgesRemaining() >= g.MissingEdges() {
			t.Fatalf("round %d: member count %d not below slot-wide %d",
				s.Round(), s.MemberEdgesRemaining(), g.MissingEdges())
		}
	}
	// A churn-free session drives member remaining to zero even though the
	// slot-wide complement stays huge — the number a consumer should gate on.
	quiet := NewSession(base(), rng.New(3))
	for i := 0; i < 2000 && quiet.MemberEdgesRemaining() > 0; i++ {
		quiet.Step()
	}
	if quiet.MemberEdgesRemaining() != 0 {
		t.Fatalf("churn-free session never closed its member pairs: %d left", quiet.MemberEdgesRemaining())
	}
	if quiet.Coverage() != 1 {
		t.Fatalf("coverage %v with zero member pairs remaining", quiet.Coverage())
	}
	if quiet.Graph().MissingEdges() == 0 {
		t.Fatal("slot-wide complement unexpectedly zero (test premise broken)")
	}
}
