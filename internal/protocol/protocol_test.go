package protocol

import (
	"fmt"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/simtest"
)

// complete reports whether every node of kg knows every other node, read
// row by row rather than from the arc count AllDiscovered uses.
func complete(kg *graph.Directed) bool {
	for u := 0; u < kg.N(); u++ {
		if kg.OutDegree(u) != kg.N()-1 {
			return false
		}
	}
	return true
}

// mirrors reports whether kg's out-lists are exactly g's neighbor lists,
// order included: the knowledge of a cluster that has learned nothing yet.
func mirrors(kg *graph.Directed, g *graph.Undirected) bool {
	for u := 0; u < g.N(); u++ {
		if fmt.Sprint(kg.OutNeighbors(u, nil)) != fmt.Sprint(g.Neighbors(u, nil)) {
			return false
		}
	}
	return kg.N() == g.N() && kg.M() == 2*g.M()
}

func TestPushProtocolDiscoversPath(t *testing.T) {
	g := gen.Path(12)
	cl := NewCluster(g, ProtoPush, netsim.Config{Seed: 1})
	rounds, done := cl.Run(sim.DefaultMaxRounds(12))
	if !done {
		t.Fatalf("push protocol did not converge in %d rounds", rounds)
	}
	if !complete(cl.Knowledge()) {
		t.Fatal("knowledge graph not complete")
	}
}

func TestPullProtocolDiscoversPath(t *testing.T) {
	g := gen.Path(12)
	cl := NewCluster(g, ProtoPull, netsim.Config{Seed: 2})
	rounds, done := cl.Run(sim.DefaultMaxRounds(12))
	if !done {
		t.Fatalf("pull protocol did not converge in %d rounds", rounds)
	}
	if !complete(cl.Knowledge()) {
		t.Fatal("knowledge graph not complete")
	}
}

func TestPushKnowledgeStaysSymmetric(t *testing.T) {
	// Push introductions are symmetric (v learns w and w learns v), so in
	// a lossless network knowledge stays mutual.
	g := gen.Cycle(8)
	cl := NewCluster(g, ProtoPush, netsim.Config{Seed: 3})
	for i := 0; i < 50; i++ {
		cl.Net.Round(cl.Handlers)
		// Pending in-flight messages may break symmetry transiently; check
		// only that completed knowledge is consistent after the run.
	}
	cl.Knowledge().CheckInvariants()
}

func TestProtocolMessagesAreSingleID(t *testing.T) {
	// Every message carries at most one ID: total ID bits <= messages × ⌈lg n⌉.
	g := gen.Path(10)
	cl := NewCluster(g, ProtoPush, netsim.Config{Seed: 4})
	cl.Run(2000)
	s := cl.Net.Stats()
	if s.IDBits > s.Sent*int64(cl.Net.IDBits()) {
		t.Fatalf("some message carried more than one ID: %+v", s)
	}
	if s.Sent == 0 {
		t.Fatal("no traffic")
	}
}

func TestPushProtocolMatchesCentralizedSim(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution comparison is slow")
	}
	// The message-level push protocol is the synchronous push process with
	// a one-round delivery delay, so its mean convergence time should be
	// within a couple of rounds of the centralized simulator's mean.
	const trials = 60
	const n = 16
	protoMean := 0.0
	for i := 0; i < trials; i++ {
		cl := NewCluster(gen.Cycle(n), ProtoPush, netsim.Config{Seed: uint64(1000 + i)})
		rounds, done := cl.Run(sim.DefaultMaxRounds(n))
		if !done {
			t.Fatal("protocol trial did not converge")
		}
		protoMean += float64(rounds)
	}
	protoMean /= trials

	results := sim.Trials(0, trials, 99, func(trial int, r *rng.Rand) *graph.Undirected {
		return gen.Cycle(n)
	}, func(g *graph.Undirected, r *rng.Rand) sim.Result { return sim.Run(g, core.Push{}, r, sim.Config{}) })
	simMean := 0.0
	for _, r := range results {
		simMean += float64(r.Rounds)
	}
	simMean /= trials

	// Allow generous sampling noise plus the pipeline delay.
	lo, hi := simMean*0.6, simMean*1.6+3
	if protoMean < lo || protoMean > hi {
		t.Fatalf("protocol mean %.1f outside [%.1f, %.1f] around sim mean %.1f",
			protoMean, lo, hi, simMean)
	}
}

func TestPullProtocolWithDropsStillConverges(t *testing.T) {
	g := gen.Path(10)
	cl := NewCluster(g, ProtoPull, netsim.Config{Seed: 5, Scenario: netsim.DropScenario(0.3)})
	rounds, done := cl.Run(sim.DefaultMaxRounds(10) * 2)
	if !done {
		t.Fatalf("lossy pull did not converge in %d rounds", rounds)
	}
	if cl.Net.Stats().Dropped == 0 {
		t.Fatal("no drops recorded at loss 0.3")
	}
}

func TestClusterContactsAccessor(t *testing.T) {
	g := gen.Star(5)
	cl := NewCluster(g, ProtoPush, netsim.Config{Seed: 6})
	if d := cl.Knowledge().OutDegree(0); d != 4 {
		t.Fatalf("center contacts %d", d)
	}
	if d := cl.Knowledge().OutDegree(1); d != 1 {
		t.Fatalf("leaf contacts %d", d)
	}
}

func TestAllDiscoveredOnCompleteStart(t *testing.T) {
	cl := NewCluster(gen.Complete(4), ProtoPush, netsim.Config{Seed: 7})
	if !cl.AllDiscovered() {
		t.Fatal("complete start not discovered")
	}
}

// A start on which everyone already knows everyone is discovered before
// any round: Run executes none.
func TestRunOnCompleteStartTakesNoRounds(t *testing.T) {
	for _, proto := range []Protocol{ProtoPush, ProtoPull} {
		cl := NewCluster(gen.Complete(4), proto, netsim.Config{Seed: 7})
		rounds, done := cl.Run(100)
		if rounds != 0 || !done {
			t.Fatalf("%s: Run on a complete start returned (%d, %v), want (0, true)", proto, rounds, done)
		}
		if st := cl.Net.Stats(); st.Rounds != 0 {
			t.Fatalf("%s: %d network rounds executed on a complete start", proto, st.Rounds)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoPush.String() != "push" || ProtoPull.String() != "pull" {
		t.Fatal("protocol strings wrong")
	}
}

func TestKnowledgeGraphMirrorsInitialGraph(t *testing.T) {
	g := gen.RandomTree(20, rng.New(8))
	cl := NewCluster(g, ProtoPull, netsim.Config{Seed: 9})
	if !mirrors(cl.Knowledge(), g) {
		t.Fatal("initial knowledge graph differs from seed graph")
	}
}

func TestDeterministicClusterRuns(t *testing.T) {
	run := func() (int, int64) {
		cl := NewCluster(gen.Path(10), ProtoPull, netsim.Config{Seed: 11})
		rounds, _ := cl.Run(10000)
		return rounds, cl.Net.Stats().Sent
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 || s1 != s2 {
		t.Fatalf("cluster runs non-deterministic: (%d,%d) vs (%d,%d)", r1, s1, r2, s2)
	}
}

// TestHandlersReuseOutput: once every node knows every other and 300
// rounds have grown every buffer, a pristine push round and pull round on
// 256 nodes allocate nothing. Each handler returns its messages in its own
// buffer, reused every round, which the network copies out before the next
// handler runs.
func TestHandlersReuseOutput(t *testing.T) {
	if simtest.Race {
		t.Skip("allocation accounting differs under -race")
	}
	for _, proto := range []Protocol{ProtoPush, ProtoPull} {
		cl := NewCluster(gen.Complete(256, graph.BackendSparse), proto, netsim.Config{Seed: 1})
		for i := 0; i < 300; i++ {
			cl.Net.Round(cl.Handlers)
		}
		if allocs := testing.AllocsPerRun(100, func() { cl.Net.Round(cl.Handlers) }); allocs != 0 {
			t.Errorf("%s: a steady-state round allocates %v", proto, allocs)
		}
		cl.Close()
	}
}
