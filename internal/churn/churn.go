// Package churn simulates the paper's Section 6 extension: gossip discovery
// while nodes join and leave the network.
//
// A Session manages a fixed pool of node slots. Members join by wiring a
// fresh slot to a few bootstrap contacts (the standard P2P join) and leave
// by failing silently (fail-stop): their edges remain as *stale entries* in
// other members' contact lists, which keep getting sampled and waste work —
// the realistic cost of churn. Slots are never reused, so a departed
// identity never resurrects.
//
// Under churn, "convergence" is no longer a one-shot event: the membership
// the processes chase keeps moving. The natural steady-state metric is
// coverage — the fraction of current-member pairs that know each other —
// which experiment E14 tracks against the churn rate.
//
// The Session is a thin orchestration layer over the engine's resumable
// sim.Session: churn events are applied between steps through the engine's
// membership mutations (InsertNode / RemoveNode / AddEdge), each gossip
// round is one sim.Session.Step, and coverage comes from the engine's
// incrementally maintained alive-edge count — O(1) per read instead of the
// O(members²) pair scan earlier releases performed every round.
package churn

import (
	"fmt"

	"gossipdisc/internal/core"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// Config parameterizes a churn session.
type Config struct {
	// Capacity is the total number of node slots. Joins beyond capacity
	// are silently dropped (the Session never reuses slots).
	Capacity int
	// InitialMembers are alive at round 0, wired in a connected ring plus
	// random chords.
	InitialMembers int
	// SeedDegree is how many bootstrap contacts a joiner receives.
	SeedDegree int
	// Rate is the expected number of churn events per round; each event
	// removes one uniform member and admits one fresh joiner, keeping the
	// population stationary. It must be finite and non-negative.
	Rate float64
	// Pull selects the two-hop-walk process; default is push.
	Pull bool
	// Backend selects the graph row-storage backend for the slot pool
	// (graph.BackendDense, the zero value, by default). Large-capacity
	// long-lived swarms should use BackendSparse or BackendAuto; coverage
	// series are byte-identical across backends.
	Backend graph.Backend
}

// Session is a running churn simulation.
type Session struct {
	cfg          Config
	es           *sim.Session
	alive        []bool
	members      []int // alive node ids (unordered)
	nextSlot     int
	r            *rng.Rand
	joinsDropped int
}

// NewSession builds a session; it panics on nonsensical configuration,
// including a Rate that is NaN, negative or at least 2^53 — past which
// Step's one-event-at-a-time countdown no longer moves, and would never
// return.
func NewSession(cfg Config, r *rng.Rand) *Session {
	if cfg.InitialMembers < 2 || cfg.Capacity < cfg.InitialMembers || !(cfg.Rate >= 0 && cfg.Rate < 1<<53) {
		panic(fmt.Sprintf("churn: bad config %+v", cfg))
	}
	if cfg.SeedDegree < 1 {
		cfg.SeedDegree = 1
	}
	g := graph.NewUndirectedOn(cfg.Capacity, cfg.Backend)
	alive := make([]bool, cfg.Capacity)
	s := &Session{
		cfg:      cfg,
		alive:    alive,
		nextSlot: cfg.InitialMembers,
		r:        r,
	}
	// Initial topology: ring plus one random chord per member, connected.
	// The ring goes in in a cycle's Edges() order, which the lists keep.
	m := cfg.InitialMembers
	g.AddEdge(0, 1)
	if m >= 3 {
		g.AddEdge(0, m-1)
	}
	for u := 1; u < m-1; u++ {
		g.AddEdge(u, u+1)
	}
	for u := 0; u < cfg.InitialMembers; u++ {
		g.AddEdge(u, r.Intn(cfg.InitialMembers))
		alive[u] = true
		s.members = append(s.members, u)
	}
	var proc core.Process
	if cfg.Pull {
		proc = core.CrashedPull{Alive: alive}
	} else {
		proc = core.Crashed{Inner: core.Push{}, Alive: alive}
	}
	// The engine session runs open-ended: churn never converges, so the
	// Done predicate is pinned false and the round budget unbounded. The
	// liveness-aware process shares the session's alive mask, so membership
	// mutations between steps are visible to the next act phase.
	s.es = sim.NewSession(g, proc, r, sim.Config{
		MaxRounds: -1,
		Done:      func(*graph.Undirected) bool { return false },
	})
	s.es.TrackMembership(alive)
	return s
}

// Members returns the number of current members.
func (s *Session) Members() int { return s.es.MemberCount() }

// Round returns the number of completed rounds.
func (s *Session) Round() int { return s.es.Round() }

// JoinsDropped reports joins that failed for lack of fresh slots.
func (s *Session) JoinsDropped() int { return s.joinsDropped }

// Graph exposes the underlying accumulated contact graph (read-only use).
func (s *Session) Graph() *graph.Undirected { return s.es.Graph() }

// Subscribe attaches sub to the engine session's observation bus: round
// deltas (with Joined/Left/Members/MemberEdges populated, since churn
// sessions always track membership) plus a KindJoin / KindLeave event for
// every churn event as it is applied. See sim.Session.Subscribe.
func (s *Session) Subscribe(sub stream.Subscriber) { s.es.Subscribe(sub) }

// Alive reports whether slot u currently holds a member.
func (s *Session) Alive(u int) bool { return s.alive[u] }

// Step executes one synchronous round: churn events first (memberships
// change between rounds), then one gossip round among current members. It
// returns the round's delta — new edges plus the join/leave events the
// churn applied — owned by the engine session and reused across rounds.
func (s *Session) Step() *sim.RoundDelta {
	// Poissonized churn: Rate expected events, geometric-free simple loop.
	events := 0
	for remaining := s.cfg.Rate; remaining > 0; remaining-- {
		p := remaining
		if p > 1 {
			p = 1
		}
		if s.r.Bernoulli(p) {
			events++
		}
	}
	for e := 0; e < events; e++ {
		s.churnOnce()
	}

	// One synchronous gossip round among the living.
	d, _ := s.es.Step()
	return d
}

// churnOnce removes one uniform member and admits one joiner.
func (s *Session) churnOnce() {
	if len(s.members) <= 2 {
		return // keep the group non-trivial
	}
	// Leave: fail-stop, stale edges remain.
	i := s.r.Intn(len(s.members))
	leaving := s.members[i]
	s.members[i] = s.members[len(s.members)-1]
	s.members = s.members[:len(s.members)-1]
	s.es.RemoveNode(leaving)

	// Join: fresh slot, bootstrap contacts among current members.
	if s.nextSlot >= s.cfg.Capacity {
		s.joinsDropped++
		return
	}
	joiner := s.nextSlot
	s.nextSlot++
	s.es.InsertNode(joiner)
	for k := 0; k < s.cfg.SeedDegree; k++ {
		s.es.AddEdge(joiner, s.members[s.r.Intn(len(s.members))])
	}
	s.members = append(s.members, joiner)
}

// Coverage returns the fraction of unordered current-member pairs that are
// adjacent (1 = every member knows every member). It reads the engine
// session's incrementally maintained counts — O(1), no graph scan.
func (s *Session) Coverage() float64 { return s.es.Coverage() }

// MemberEdgesRemaining returns the number of unordered current-member
// pairs not yet adjacent — the work the gossip still has to do for full
// coverage. Pairs involving departed slots are excluded: a departed
// identity is not outstanding work (earlier releases counted every pair
// over all capacity slots, which never reached zero under churn). O(1).
func (s *Session) MemberEdgesRemaining() int { return s.es.MemberEdgesRemaining() }

// Run executes rounds steps and returns the coverage after each step.
func (s *Session) Run(rounds int) []float64 {
	out := make([]float64, rounds)
	for i := 0; i < rounds; i++ {
		s.Step()
		out[i] = s.Coverage()
	}
	return out
}
