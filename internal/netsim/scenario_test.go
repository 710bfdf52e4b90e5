package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"gossipdisc/internal/rng"
)

// mustPanic asserts that f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"bad scenario loss", Config{Scenario: &Scenario{Phases: []Phase{
			{All: &Impairment{Loss: 1.5}}}}}, "loss"},
		{"scenario node out of range", Config{Scenario: &Scenario{Phases: []Phase{
			{Crash: []int{99}}}}}, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, tc.want, func() { New(4, tc.cfg) })
		})
	}
	// Boundary values are fine.
	New(4, Config{Workers: 0}).Close()
	New(4, Config{Scenario: DropScenario(1)}).Close()
}

func TestScenarioValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		scn  Scenario
		want string // "" = valid
	}{
		{"empty", Scenario{}, ""},
		{"plain loss", Scenario{Phases: []Phase{{All: &Impairment{Loss: 0.5}}}}, ""},
		{"negative from", Scenario{Phases: []Phase{{From: -1}}}, "negative from"},
		{"negative until", Scenario{Phases: []Phase{{Until: -2}}}, "negative until"},
		{"until before from", Scenario{Phases: []Phase{{From: 9, Until: 3}}}, "until 3 before from 9"},
		{"NaN reorder", Scenario{Phases: []Phase{
			{All: &Impairment{Reorder: math.NaN()}}}}, "reorder"},
		{"negative delay", Scenario{Phases: []Phase{
			{Links: []LinkRule{{Impairment: Impairment{Delay: -1}}}}}}, "negative delay"},
		{"negative jitter", Scenario{Phases: []Phase{
			{All: &Impairment{Jitter: -3}}}}, "negative jitter"},
		{"delay plus jitter at cap", Scenario{Phases: []Phase{
			{All: &Impairment{Delay: maxDelay - 5, Jitter: 5}}}}, ""},
		{"delay plus jitter above cap", Scenario{Phases: []Phase{
			{All: &Impairment{Delay: maxDelay - 5, Jitter: 6}}}}, "above"},
		{"max jitter", Scenario{Phases: []Phase{
			{All: &Impairment{Jitter: math.MaxInt}}}}, "above"},
		{"max link delay", Scenario{Phases: []Phase{
			{Links: []LinkRule{{Impairment: Impairment{Delay: math.MaxInt, Jitter: math.MaxInt}}}}}}, "above"},
		{"duplicate above one", Scenario{Phases: []Phase{
			{All: &Impairment{Duplicate: 2}}}}, "duplicate"},
		{"link endpoint range", Scenario{Phases: []Phase{
			{Links: []LinkRule{{From: Node(8)}}}}}, "out of range"},
		{"empty partition group", Scenario{Phases: []Phase{
			{Partition: [][]int{{0}, {}}}}}, "empty partition group"},
		{"overlapping groups", Scenario{Phases: []Phase{
			{Partition: [][]int{{0, 1}, {1, 2}}}}}, "groups 0 and 1"},
		{"partition node range", Scenario{Phases: []Phase{
			{Partition: [][]int{{0, 12}}}}}, "out of range"},
		{"crash node range", Scenario{Phases: []Phase{{Crash: []int{-1}}}}, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.scn.Validate(8)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseScenario(t *testing.T) {
	scn, err := ParseScenario([]byte(`{
		"name": "split-brain",
		"phases": [
			{"until": 10, "partition": [[0, 1], [2, 3]]},
			{"from": 3, "until": 6, "links": [{"from": 0, "to": 1, "loss": 0.5, "delay": 2}]},
			{"from": 11, "all": {"jitter": 1, "duplicate": 0.1, "reorder": 0.2}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if scn.Name != "split-brain" || len(scn.Phases) != 3 {
		t.Fatalf("parsed %+v", scn)
	}
	lr := scn.Phases[1].Links[0]
	if lr.From == nil || *lr.From != 0 || lr.To == nil || *lr.To != 1 || lr.Loss != 0.5 || lr.Delay != 2 {
		t.Fatalf("link rule %+v", lr)
	}
	if scn.Phases[2].All.Jitter != 1 {
		t.Fatalf("phase 3 %+v", scn.Phases[2])
	}
	if err := scn.Validate(4); err != nil {
		t.Fatal(err)
	}

	// The scenario that README's gossipsim -scenario command runs.
	doc, err := LoadScenario("testdata/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "flaky-backbone" || len(doc.Phases) != 5 {
		t.Fatalf("documented scenario parsed as %+v", doc)
	}
	if crash := doc.Phases[2].Crash; len(crash) != 2 || crash[0] != 3 || crash[1] != 12 {
		t.Fatalf("documented crash phase %+v", doc.Phases[2])
	}
	if err := doc.Validate(64); err != nil {
		t.Fatal(err)
	}

	if _, err := ParseScenario([]byte(`{"phases": [{"dealy": 3}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseScenario([]byte(`{"phases": [{"all": {"loss": 7}}]}`)); err == nil {
		t.Fatal("bad probability accepted")
	}
	if _, err := ParseScenario([]byte(`{not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	maxInt := strconv.Itoa(math.MaxInt)
	for _, spec := range []string{
		`{"phases":[{"all":{"jitter":` + maxInt + `}}]}`,
		`{"phases":[{"links":[{"delay":` + maxInt + `}]}]}`,
	} {
		if _, err := ParseScenario([]byte(spec)); err == nil || !strings.Contains(err.Error(), "above") {
			t.Fatalf("overflowing delay accepted: %s (err %v)", spec, err)
		}
	}
}

// oneShot sends a single message at a fixed round and records its inboxes.
type oneShot struct {
	self, to, at int
	seen         map[int][]Message // round -> inbox copy
}

func newOneShot(self, to, at int) *oneShot {
	return &oneShot{self: self, to: to, at: at, seen: map[int][]Message{}}
}

func (o *oneShot) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	o.seen[round] = append([]Message(nil), inbox...)
	if round == o.at && o.to >= 0 {
		return []Message{{From: o.self, To: o.to, Kind: KindIntroduce, Payload: o.self}}
	}
	return nil
}

func TestScenarioFixedDelay(t *testing.T) {
	// Delay 2: a message sent in round 1 arrives at round 1+1+2 = 4.
	scn := &Scenario{Phases: []Phase{{All: &Impairment{Delay: 2}}}}
	nw := New(2, Config{Seed: 1, Scenario: scn})
	defer nw.Close()
	a, b := newOneShot(0, 1, 1), newOneShot(1, -1, 0)
	nw.Run([]Handler{a, b}, 6, nil)
	for round := 1; round <= 6; round++ {
		want := 0
		if round == 4 {
			want = 1
		}
		if got := len(b.seen[round]); got != want {
			t.Fatalf("round %d: inbox size %d want %d", round, got, want)
		}
	}
	if st := nw.Stats(); st.Delayed != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestScenarioJitterBoundsAndDeterminism(t *testing.T) {
	// Delay 1 + jitter 2: every message lands in rounds t+2..t+4, and the
	// pattern replays exactly.
	scn := &Scenario{Phases: []Phase{{All: &Impairment{Delay: 1, Jitter: 2}}}}
	run := func() (arrivals []int, st Stats) {
		nw := New(2, Config{Seed: 7, Scenario: scn})
		defer nw.Close()
		a := &echoNode{self: 0, to: 1, payload: 1}
		b := newOneShot(1, -1, 0)
		nw.Run([]Handler{a, b}, 40, nil)
		for round := 1; round <= 40; round++ {
			for range b.seen[round] {
				arrivals = append(arrivals, round)
			}
		}
		return arrivals, nw.Stats()
	}
	ar1, st1 := run()
	ar2, st2 := run()
	if fmt.Sprint(ar1) != fmt.Sprint(ar2) || st1 != st2 {
		t.Fatalf("jitter not deterministic: %v vs %v, %+v vs %+v", ar1, ar2, st1, st2)
	}
	if len(ar1) == 0 {
		t.Fatal("nothing delivered")
	}
	// Every arrival must respect the delay window: at least 2 and at most
	// 4 rounds after some send round in [1, 40].
	for _, round := range ar1 {
		if round < 1+1+1 || round > 40+1+3 {
			t.Fatalf("arrival round %d outside any delay window", round)
		}
	}
	if st1.Delayed != st1.Delivered {
		t.Fatalf("every copy is delayed >= 1: %+v", st1)
	}
}

func TestScenarioDuplication(t *testing.T) {
	scn := &Scenario{Phases: []Phase{{All: &Impairment{Duplicate: 1}}}}
	nw := New(2, Config{Seed: 3, Scenario: scn})
	defer nw.Close()
	a, b := newOneShot(0, 1, 1), newOneShot(1, -1, 0)
	nw.Run([]Handler{a, b}, 3, nil)
	if got := len(b.seen[2]); got != 2 {
		t.Fatalf("duplicated message delivered %d copies, want 2", got)
	}
	st := nw.Stats()
	if st.Sent != 1 || st.Duplicated != 1 || st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestScenarioReorder(t *testing.T) {
	// Five senders fan into node 0 with certain reordering: the inbox must
	// hold the same multiset, deterministically, but not necessarily in
	// sender-sorted order.
	const n = 6
	scn := &Scenario{Phases: []Phase{{All: &Impairment{Reorder: 1}}}}
	run := func() []Message {
		nw := New(n, Config{Seed: 5, Scenario: scn})
		defer nw.Close()
		rec := newOneShot(0, -1, 0)
		handlers := []Handler{Handler(rec)}
		for i := 1; i < n; i++ {
			handlers = append(handlers, newOneShot(i, 0, 1))
		}
		nw.Round(handlers)
		nw.Round(handlers)
		if st := nw.Stats(); st.Reordered != n-1 {
			t.Fatalf("stats %+v", st)
		}
		return rec.seen[2]
	}
	got := run()
	if len(got) != n-1 {
		t.Fatalf("inbox %v", got)
	}
	seen := map[int]bool{}
	for _, m := range got {
		seen[m.From] = true
	}
	for i := 1; i < n; i++ {
		if !seen[i] {
			t.Fatalf("sender %d missing from inbox %v", i, got)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(run()) {
		t.Fatal("reordering is not deterministic")
	}
}

func TestScenarioPartitionHeals(t *testing.T) {
	// Nodes {0,1} vs {2,3} split for rounds 1..4. Node 0 sends to 1 and 2
	// every round: intra-group always delivered, cross-group dropped until
	// the heal.
	scn := &Scenario{Phases: []Phase{{Until: 4, Partition: [][]int{{0, 1}, {2, 3}}}}}
	nw := New(4, Config{Seed: 9, Scenario: scn})
	defer nw.Close()
	handlers := []Handler{
		handlerFunc(func(round int, inbox []Message, r *rng.Rand) []Message {
			return []Message{
				{From: 0, To: 1, Kind: KindIntroduce, Payload: 0},
				{From: 0, To: 2, Kind: KindIntroduce, Payload: 0},
			}
		}),
		newOneShot(1, -1, 0),
		newOneShot(2, -1, 0),
		newOneShot(3, -1, 0),
	}
	nw.Run(handlers, 7, nil)
	in1 := handlers[1].(*oneShot)
	in2 := handlers[2].(*oneShot)
	for round := 2; round <= 7; round++ {
		if len(in1.seen[round]) != 1 {
			t.Fatalf("intra-group delivery broken at round %d: %v", round, in1.seen[round])
		}
		crossWant := 0
		if round >= 6 { // sent at round 5, first post-heal send round
			crossWant = 1
		}
		if got := len(in2.seen[round]); got != crossWant {
			t.Fatalf("cross-group round %d: %d messages want %d", round, got, crossWant)
		}
	}
	st := nw.Stats()
	if st.PartitionDrops != 4 { // rounds 1-4 cross-group sends
		t.Fatalf("stats %+v", st)
	}
}

// handlerFunc adapts a function to the Handler interface.
type handlerFunc func(round int, inbox []Message, r *rng.Rand) []Message

func (f handlerFunc) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	return f(round, inbox, r)
}

func TestScenarioAsymmetricLink(t *testing.T) {
	// 0→1 is severed, 1→0 delivers: directed reachability on an undirected
	// protocol substrate.
	scn := &Scenario{Phases: []Phase{{Links: []LinkRule{
		{From: Node(0), To: Node(1), Impairment: Impairment{Loss: 1}},
	}}}}
	nw := New(2, Config{Seed: 2, Scenario: scn})
	defer nw.Close()
	a := &echoNode{self: 0, to: 1, payload: 7}
	b := &echoNode{self: 1, to: 0, payload: 9}
	nw.Run([]Handler{a, b}, 10, nil)
	for round := 2; round <= 10; round++ {
		if len(a.seen[round-1]) != 1 {
			t.Fatalf("1→0 delivery broken at round %d", round)
		}
		if len(b.seen[round-1]) != 0 {
			t.Fatalf("0→1 delivered despite loss 1 at round %d", round)
		}
	}
	st := nw.Stats()
	// All 10 of 0's sends dropped; all 10 of 1's enqueued (the round-10
	// send is still in flight — Delivered counts copies entering the wire).
	if st.Dropped != 10 || st.Delivered != 10 {
		t.Fatalf("stats %+v", st)
	}
}

// crashRecorder records crash/restart hook rounds and handled rounds.
type crashRecorder struct {
	self      int
	handled   []int
	crashes   []int
	restarts  []int
	sendTo    int
	seenTotal int
}

func (c *crashRecorder) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	c.handled = append(c.handled, round)
	c.seenTotal += len(inbox)
	if c.sendTo >= 0 {
		return []Message{{From: c.self, To: c.sendTo, Kind: KindIntroduce, Payload: c.self}}
	}
	return nil
}

func (c *crashRecorder) Crashed(round int)   { c.crashes = append(c.crashes, round) }
func (c *crashRecorder) Restarted(round int) { c.restarts = append(c.restarts, round) }

func TestScenarioCrashRestart(t *testing.T) {
	// Node 1 is down for rounds 3..5: its handler does not run, messages
	// delivered to it during the outage are lost, and the hooks fire at
	// rounds 3 (Crashed) and 6 (Restarted).
	scn := &Scenario{Phases: []Phase{{From: 3, Until: 5, Crash: []int{1}}}}
	nw := New(2, Config{Seed: 4, Scenario: scn})
	defer nw.Close()
	a := &crashRecorder{self: 0, sendTo: 1}
	b := &crashRecorder{self: 1, sendTo: -1}
	nw.Run([]Handler{a, b}, 8, nil)

	if fmt.Sprint(b.crashes) != "[3]" || fmt.Sprint(b.restarts) != "[6]" {
		t.Fatalf("hooks: crashes %v restarts %v", b.crashes, b.restarts)
	}
	if fmt.Sprint(b.handled) != "[1 2 6 7 8]" {
		t.Fatalf("handled rounds %v", b.handled)
	}
	// Sends from rounds 2,3,4 would deliver at 3,4,5 — all lost; sends
	// from 1,5,6,7 deliver at 2,6,7,8.
	if b.seenTotal != 4 {
		t.Fatalf("delivered %d messages to the crashing node, want 4", b.seenTotal)
	}
	st := nw.Stats()
	if st.CrashDrops != 3 || st.Sent != 8 || st.Delivered != 5 || st.Dropped != 3 {
		t.Fatalf("stats %+v", st)
	}
	if nw.Down(1) {
		t.Fatal("node 1 still marked down after restart")
	}
}

func TestScenarioCrashFreezesNodeRNG(t *testing.T) {
	// A node that draws from its generator every active round must produce
	// the same draw sequence whether or not an outage interrupts it: the
	// generator is frozen while down.
	draws := func(scn *Scenario) []int {
		var got []int
		h := handlerFunc(func(round int, inbox []Message, r *rng.Rand) []Message {
			got = append(got, r.Intn(1000))
			return nil
		})
		nw := New(1, Config{Seed: 11, Scenario: scn})
		defer nw.Close()
		nw.Run([]Handler{h}, 8, nil)
		return got
	}
	plain := draws(nil)
	crashed := draws(&Scenario{Phases: []Phase{{From: 3, Until: 5, Crash: []int{0}}}})
	if len(plain) != 8 || len(crashed) != 5 {
		t.Fatalf("draw counts %d, %d", len(plain), len(crashed))
	}
	// The crashed run makes the same first five draws as the plain run:
	// downtime rounds consume nothing from the node's stream.
	expect := plain[:5]
	if fmt.Sprint(crashed) != fmt.Sprint(expect) {
		t.Fatalf("crashed draws %v want prefix-preserving %v", crashed, expect)
	}
}

func TestScenarioReplayByteIdentical(t *testing.T) {
	// The kitchen sink: loss + delay + jitter + reorder + duplication +
	// an asymmetric rule + a healing partition + a crash spike, all at
	// once. Two runs from the same (seed, scenario) must produce the same
	// complete execution: every inbox of every node of every round.
	scn := &Scenario{
		Name: "kitchen-sink",
		Phases: []Phase{
			{All: &Impairment{Loss: 0.2, Delay: 1, Jitter: 2, Reorder: 0.3, Duplicate: 0.2}},
			{From: 5, Until: 12, Partition: [][]int{{0, 1, 2}, {3, 4, 5}}},
			{From: 8, Until: 14, Crash: []int{2, 5}},
			{From: 15, Links: []LinkRule{{From: Node(0), To: Node(3), Impairment: Impairment{Loss: 1}}}},
		},
	}
	const n, rounds = 6, 40
	run := func() (string, Stats) {
		nw := New(n, Config{Seed: 99, Scenario: scn})
		defer nw.Close()
		var trace strings.Builder
		handlers := make([]Handler, n)
		for i := 0; i < n; i++ {
			handlers[i] = handlerFunc(func(round int, inbox []Message, r *rng.Rand) []Message {
				fmt.Fprintf(&trace, "r%d u%d %v\n", round, i, inbox)
				return []Message{{From: i, To: r.Intn(n), Kind: KindIntroduce, Payload: i}}
			})
		}
		nw.Run(handlers, rounds, nil)
		return trace.String(), nw.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatal("execution traces differ between identical (seed, scenario) runs")
	}
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if s1.PartitionDrops == 0 || s1.CrashDrops == 0 || s1.Delayed == 0 ||
		s1.Duplicated == 0 || s1.Reordered == 0 || s1.Dropped == 0 {
		t.Fatalf("kitchen sink failed to exercise every impairment: %+v", s1)
	}
}

func TestPoolCloseSemantics(t *testing.T) {
	nw := New(2, Config{Seed: 1})
	handlers := []Handler{newOneShot(0, -1, 0), newOneShot(1, -1, 0)}
	nw.Round(handlers)
	nw.Close()
	nw.Close() // idempotent
	mustPanic(t, "closed", func() { nw.Round(handlers) })

	// Closing a network that never ran a round is fine too.
	New(2, Config{Seed: 1}).Close()
}
