package protocol

import (
	"testing"
	"testing/quick"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/rng"
)

// Property: contact knowledge only grows, never contains self or
// out-of-range IDs, and the knowledge graph's edge count is monotone.
func TestQuickKnowledgeMonotoneAndValid(t *testing.T) {
	f := func(seed uint64, usePull bool) bool {
		r := rng.New(seed)
		n := 4 + int(seed%8)
		proto := ProtoPush
		if usePull {
			proto = ProtoPull
		}
		cl := NewCluster(gen.RandomTree(n, r), proto, netsim.Config{Seed: seed})
		prevCounts := make([]int, n)
		prevEdges := 0
		for round := 0; round < 30; round++ {
			cl.Net.Round(cl.Handlers)
			kg := cl.Knowledge()
			for u := 0; u < n; u++ {
				if kg.OutDegree(u) < prevCounts[u] {
					return false // knowledge shrank
				}
				prevCounts[u] = kg.OutDegree(u)
				if kg.HasArc(u, u) {
					return false // learned itself
				}
				for _, id := range kg.OutNeighbors(u, nil) {
					if id < 0 || id >= n {
						return false // forged identity
					}
				}
			}
			m := kg.M()
			if m < prevEdges {
				return false
			}
			prevEdges = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: under a lossless network, a contact learned by anyone was a
// legitimate member (payloads always within range) and push symmetry means
// the final complete state is reached jointly.
func TestQuickPushCompletionIsMutual(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + int(seed%6)
		cl := NewCluster(gen.Cycle(n), ProtoPush, netsim.Config{Seed: seed})
		_ = r
		maxRounds := 20000
		rounds, done := cl.Run(maxRounds)
		if !done || rounds <= 0 {
			return false
		}
		// All nodes report full knowledge simultaneously at the stop round.
		return complete(cl.Knowledge())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: dropping every message freezes knowledge at the initial state.
func TestTotalLossFreezesKnowledge(t *testing.T) {
	g := gen.Cycle(10)
	cl := NewCluster(g, ProtoPull, netsim.Config{Seed: 3, Scenario: netsim.DropScenario(1)})
	for i := 0; i < 50; i++ {
		cl.Net.Round(cl.Handlers)
	}
	if !mirrors(cl.Knowledge(), g) {
		t.Fatal("knowledge changed despite total message loss")
	}
	st := cl.Net.Stats()
	if st.Delivered != 0 || st.Dropped != st.Sent {
		t.Fatalf("loss accounting wrong: %+v", st)
	}
}

// The pull protocol must still serve requests for nodes it has just
// learned about (no stale-state deadlock): exercised by a high-degree hub.
func TestPullHubServesAllRequests(t *testing.T) {
	cl := NewCluster(gen.Star(16), ProtoPull, netsim.Config{Seed: 4})
	rounds, done := cl.Run(100000)
	if !done {
		t.Fatalf("star pull did not converge in %d rounds", rounds)
	}
}
