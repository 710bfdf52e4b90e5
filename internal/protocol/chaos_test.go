package protocol

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gossipdisc/internal/gen"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/sim"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden files from current behavior")

// clusterDigest runs one wire-level discovery to completion (or maxRounds)
// and folds everything observable — round count, convergence, the full
// traffic counters, and every node's final knowledge — into one line. Two
// runs are behaviorally identical iff their digests match.
func clusterDigest(proto Protocol, n int, maxRounds int, cfg netsim.Config) string {
	cl := NewCluster(gen.Cycle(n), proto, cfg)
	defer cl.Close()
	rounds, done := cl.Run(maxRounds)
	h := fnv.New64a()
	for u := 0; u < n; u++ {
		contacts := cl.Knowledge().OutNeighbors(u, nil)
		sort.Ints(contacts)
		fmt.Fprintf(h, "%d:%v;", u, contacts)
	}
	st := cl.Net.Stats()
	return fmt.Sprintf(
		"%s n=%d: rounds=%d done=%v sent=%d dropped=%d delivered=%d idbits=%d contacts=%016x",
		proto, n, rounds, done, st.Sent, st.Dropped, st.Delivered, st.IDBits, h.Sum64())
}

// TestSeedCompatGolden pins the zero-impairment wire byte-for-byte against
// goldens recorded on the pre-scenario netsim: a Network with no Scenario
// must replay the exact executions the first, goroutine-per-node simulator
// produced.
func TestSeedCompatGolden(t *testing.T) {
	var lines []string
	for _, c := range []struct {
		proto Protocol
		seed  uint64
	}{
		{ProtoPush, 11},
		{ProtoPull, 12},
	} {
		lines = append(lines, clusterDigest(c.proto, 32, sim.DefaultMaxRounds(32), netsim.Config{Seed: c.seed}))
	}
	got := strings.Join(lines, "\n") + "\n"
	compareGolden(t, "seedcompat.golden", got)
}

// loadScenario reads a canned scenario from testdata and validates it for n.
func loadScenario(t *testing.T, name string, n int) *netsim.Scenario {
	t.Helper()
	scn, err := netsim.LoadScenario(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.Validate(n); err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestChaosScenarioGoldens runs the two canned chaos scenarios — a
// partition that heals and an asymmetric (NAT-like) reachability phase —
// and diffs the complete run digests against committed goldens: any drift
// in the impairment pipeline's draws, routing, or delivery order shows up
// as a digest change.
func TestChaosScenarioGoldens(t *testing.T) {
	const n = 32
	var lines []string
	for _, file := range []string{"scenario_partition_heal.json", "scenario_asymmetric.json"} {
		scn := loadScenario(t, file, n)
		for _, c := range []struct {
			proto Protocol
			seed  uint64
		}{{ProtoPush, 41}, {ProtoPull, 42}} {
			lines = append(lines, scn.Name+" "+clusterDigest(c.proto, n, sim.DefaultMaxRounds(n), netsim.Config{
				Seed:     c.seed,
				Scenario: scn,
			}))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	compareGolden(t, "scenarios.golden", got)
}

// TestChaosReplayByteIdentical is the determinism contract at the protocol
// level: the same (seed, scenario) replays the partition-heal and the
// asymmetric scenarios — and a crash-spike-mid-partition scenario built in
// Go — to byte-identical executions.
func TestChaosReplayByteIdentical(t *testing.T) {
	const n = 32
	crashSpike := &netsim.Scenario{
		Name: "crash-spike-mid-partition",
		Phases: []netsim.Phase{
			{Until: 30, Partition: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}},
			{From: 10, Until: 20, Crash: []int{2, 3, 19}},
			{All: &netsim.Impairment{Loss: 0.15, Jitter: 1, Duplicate: 0.1, Reorder: 0.2}},
		},
	}
	scenarios := []*netsim.Scenario{
		loadScenario(t, "scenario_partition_heal.json", n),
		loadScenario(t, "scenario_asymmetric.json", n),
		crashSpike,
	}
	for _, scn := range scenarios {
		for _, proto := range []Protocol{ProtoPush, ProtoPull} {
			cfg := netsim.Config{Seed: 77, Scenario: scn}
			d1 := clusterDigest(proto, n, sim.DefaultMaxRounds(n), cfg)
			d2 := clusterDigest(proto, n, sim.DefaultMaxRounds(n), cfg)
			if d1 != d2 {
				t.Errorf("%s %s: replay diverged:\n%s\n%s", scn.Name, proto, d1, d2)
			}
		}
	}
}

// TestChaosCrashHooks checks the crash/restart plumbing end to end: a
// scenario outage fires the handlers' NodeHealth hooks, the node keeps its
// contacts across the outage, and discovery still completes after restart.
func TestChaosCrashHooks(t *testing.T) {
	const n = 16
	scn := &netsim.Scenario{Phases: []netsim.Phase{
		{From: 3, Until: 8, Crash: []int{4, 5}},
	}}
	for _, proto := range []Protocol{ProtoPush, ProtoPull} {
		cl := NewCluster(gen.Cycle(n), proto, netsim.Config{Seed: 51, Scenario: scn})
		cl.Net.Run(cl.Handlers, 2, nil)
		before := cl.Knowledge().OutDegree(4)
		cl.Net.Run(cl.Handlers, 4, nil) // rounds 3-6: mid-outage
		h := cl.Health(4)
		if !h.Down || h.Crashes != 1 || h.LastCrash != 3 {
			t.Fatalf("%s mid-outage health %+v", proto, h)
		}
		if cl.Knowledge().OutDegree(4) != before {
			t.Fatalf("%s crashed node's contacts changed during outage", proto)
		}
		rounds, done := cl.Run(sim.DefaultMaxRounds(n))
		if !done {
			t.Fatalf("%s did not re-converge after restart (%d rounds)", proto, rounds)
		}
		if h.Down || h.LastRestart != 9 {
			t.Fatalf("%s post-restart health %+v", proto, h)
		}
		if cl.Health(0).Crashes != 0 {
			t.Fatalf("%s healthy node recorded a crash", proto)
		}
		cl.Close()
	}
}

// TestPullLossMidHandshake pins the pull pipeline's behavior when a wire
// fault interrupts the three-message handshake. The pipeline is stateless
// by design — a node issues a fresh PULL-REQ every round no matter what
// happened to the last one — so a dropped PULL-REQ or PULL-REPLY must cost
// exactly the lost walk: no stall, no pending-handshake state, and a fresh
// request the very next round.
func TestPullLossMidHandshake(t *testing.T) {
	const n = 8
	reqCount := func(st netsim.Stats) int64 { return st.Sent }

	// (a) Total blackout: nothing is delivered for 10 rounds, yet every
	// node keeps issuing exactly one PULL-REQ per round (no stall, no
	// retry amplification) and no contact list changes (no leaked state).
	blackout := &netsim.Scenario{Phases: []netsim.Phase{
		{Until: 10, All: &netsim.Impairment{Loss: 1}},
	}}
	cl := NewCluster(gen.Cycle(n), ProtoPull, netsim.Config{Seed: 61, Scenario: blackout})
	before := make([]int, n)
	for u := 0; u < n; u++ {
		before[u] = cl.Knowledge().OutDegree(u)
	}
	cl.Net.Run(cl.Handlers, 10, nil)
	st := cl.Net.Stats()
	if got, want := reqCount(st), int64(10*n); got != want {
		t.Fatalf("blackout: %d messages sent, want exactly one PULL-REQ per node per round = %d", got, want)
	}
	if st.Delivered != 0 {
		t.Fatalf("blackout delivered %d", st.Delivered)
	}
	for u := 0; u < n; u++ {
		if cl.Knowledge().OutDegree(u) != before[u] {
			t.Fatalf("node %d's contacts changed under total loss", u)
		}
	}
	// The wire heals: the pipeline resumes from its fresh per-round
	// requests and discovery completes.
	rounds, done := cl.Run(sim.DefaultMaxRounds(n))
	if !done {
		t.Fatalf("pull stalled after blackout healed (%d rounds)", rounds)
	}
	cl.Close()

	// (b) Replies severed mid-handshake: node 0's inbound links are dead,
	// so its PULL-REQs arrive and are served, but every PULL-REPLY (and
	// HELLO) back to it is lost. Node 0 must keep learning nothing while
	// still requesting every round, then catch up once healed.
	deaf := &netsim.Scenario{Phases: []netsim.Phase{
		{Until: 12, Links: []netsim.LinkRule{{To: netsim.Node(0), Impairment: netsim.Impairment{Loss: 1}}}},
	}}
	cl = NewCluster(gen.Cycle(n), ProtoPull, netsim.Config{Seed: 62, Scenario: deaf})
	deg0 := cl.Knowledge().OutDegree(0)
	cl.Net.Run(cl.Handlers, 12, nil)
	if cl.Knowledge().OutDegree(0) != deg0 {
		t.Fatal("node 0 learned contacts despite severed replies")
	}
	rounds, done = cl.Run(sim.DefaultMaxRounds(n))
	if !done {
		t.Fatalf("pull stalled after reply loss healed (%d rounds)", rounds)
	}
	cl.Close()
}

// TestKnowledgeIsOneWayUnderLoss pins why the knowledge graph is directed:
// with every link into node 0 severed, pull nodes still learn 0 from the
// replies they get, but the HELLO that would introduce them to 0 is lost,
// so some u knows 0 while 0 does not know u.
func TestKnowledgeIsOneWayUnderLoss(t *testing.T) {
	const n = 8
	deaf := &netsim.Scenario{Phases: []netsim.Phase{
		{Links: []netsim.LinkRule{{To: netsim.Node(0), Impairment: netsim.Impairment{Loss: 1}}}},
	}}
	cl := NewCluster(gen.Cycle(n), ProtoPull, netsim.Config{Seed: 62, Scenario: deaf})
	defer cl.Close()
	cl.Net.Run(cl.Handlers, 12, nil)
	kg := cl.Knowledge()
	for u := 1; u < n; u++ {
		if kg.HasArc(u, 0) && !kg.HasArc(0, u) {
			return
		}
	}
	t.Fatalf("no node knows 0 one-way after 12 rounds with 0's inbound links severed: %v", kg.Arcs())
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("digest drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
