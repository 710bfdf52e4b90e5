package netsim

import (
	"math"
	"testing"

	"gossipdisc/internal/rng"
)

// echoNode sends one message to a fixed target each round and records its
// inbox history.
type echoNode struct {
	self, to int
	payload  int
	seen     [][]Message
}

func (e *echoNode) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	cp := append([]Message(nil), inbox...)
	e.seen = append(e.seen, cp)
	return []Message{{From: e.self, To: e.to, Kind: KindIntroduce, Payload: e.payload}}
}

func TestDeliveryIsNextRound(t *testing.T) {
	nw := New(2, Config{Seed: 1})
	a := &echoNode{self: 0, to: 1, payload: 7}
	b := &echoNode{self: 1, to: 0, payload: 9}
	handlers := []Handler{a, b}

	nw.Round(handlers)
	// Round 1: inboxes empty (nothing was in flight).
	if len(a.seen[0]) != 0 || len(b.seen[0]) != 0 {
		t.Fatalf("round 1 inboxes not empty: %v %v", a.seen[0], b.seen[0])
	}
	nw.Round(handlers)
	// Round 2: each sees the other's round-1 message.
	if len(a.seen[1]) != 1 || a.seen[1][0].Payload != 9 {
		t.Fatalf("a round 2 inbox %v", a.seen[1])
	}
	if len(b.seen[1]) != 1 || b.seen[1][0].Payload != 7 {
		t.Fatalf("b round 2 inbox %v", b.seen[1])
	}
}

func TestStatsAndBits(t *testing.T) {
	nw := New(4, Config{Seed: 2})
	if nw.IDBits() != 2 {
		t.Fatalf("IDBits for n=4: %d want 2", nw.IDBits())
	}
	nodes := make([]Handler, 4)
	for i := range nodes {
		nodes[i] = &echoNode{self: i, to: (i + 1) % 4, payload: i}
	}
	nw.Round(nodes)
	s := nw.Stats()
	if s.Sent != 4 || s.Delivered != 4 || s.Dropped != 0 || s.Rounds != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.IDBits != 4*2 {
		t.Fatalf("IDBits %d want 8", s.IDBits)
	}
}

// headerOnlyNode sends a payload-free message (Payload = -1).
type headerOnlyNode struct{ self int }

func (h *headerOnlyNode) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	return []Message{{From: h.self, To: h.self ^ 1, Kind: KindPullRequest, Payload: -1}}
}

func TestHeaderOnlyMessagesCostNoIDBits(t *testing.T) {
	nw := New(2, Config{Seed: 3})
	nw.Round([]Handler{&headerOnlyNode{0}, &headerOnlyNode{1}})
	if s := nw.Stats(); s.IDBits != 0 || s.Sent != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDropRate(t *testing.T) {
	nw := New(2, Config{Seed: 4, Scenario: DropScenario(0.3)})
	handlers := []Handler{
		&echoNode{self: 0, to: 1, payload: 1},
		&echoNode{self: 1, to: 0, payload: 2},
	}
	for i := 0; i < 5000; i++ {
		nw.Round(handlers)
	}
	s := nw.Stats()
	rate := float64(s.Dropped) / float64(s.Sent)
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("drop rate %.4f want 0.3", rate)
	}
	if s.Delivered+s.Dropped != s.Sent {
		t.Fatalf("conservation broken: %+v", s)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		nw := New(3, Config{Seed: 5, Scenario: DropScenario(0.5)})
		handlers := []Handler{
			&echoNode{self: 0, to: 1, payload: 1},
			&echoNode{self: 1, to: 2, payload: 2},
			&echoNode{self: 2, to: 0, payload: 3},
		}
		for i := 0; i < 200; i++ {
			nw.Round(handlers)
		}
		return nw.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// fanNode sends to node 0 from everyone, to test inbox ordering.
type fanNode struct{ self int }

func (f *fanNode) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	if f.self == 0 {
		return nil
	}
	return []Message{{From: f.self, To: 0, Kind: KindIntroduce, Payload: f.self}}
}

type recorderNode struct {
	fanNode
	got []Message
}

func (rn *recorderNode) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	rn.got = append(rn.got, inbox...)
	return nil
}

func TestInboxSortedBySender(t *testing.T) {
	const n = 6
	nw := New(n, Config{Seed: 6})
	rec := &recorderNode{}
	handlers := []Handler{rec}
	for i := 1; i < n; i++ {
		handlers = append(handlers, &fanNode{self: i})
	}
	nw.Round(handlers)
	nw.Round(handlers)
	if len(rec.got) != n-1 {
		t.Fatalf("received %d messages", len(rec.got))
	}
	for i := 1; i < len(rec.got); i++ {
		if rec.got[i].From < rec.got[i-1].From {
			t.Fatalf("inbox not sorted: %v", rec.got)
		}
	}
}

type forgerNode struct{}

func (forgerNode) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	return []Message{{From: 1, To: 0, Kind: KindIntroduce, Payload: 0}}
}

func TestForgedSenderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw := New(2, Config{Seed: 7})
	nw.Round([]Handler{forgerNode{}, &echoNode{self: 1, to: 0}})
}

type straySender struct{}

func (straySender) HandleRound(round int, inbox []Message, r *rng.Rand) []Message {
	return []Message{{From: 0, To: 99, Kind: KindIntroduce, Payload: 0}}
}

func TestInvalidTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw := New(1, Config{Seed: 8})
	nw.Round([]Handler{straySender{}})
}

func TestHandlerCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, Config{}).Round([]Handler{&echoNode{}})
}

func TestRunStops(t *testing.T) {
	nw := New(2, Config{Seed: 9})
	handlers := []Handler{
		&echoNode{self: 0, to: 1, payload: 1},
		&echoNode{self: 1, to: 0, payload: 2},
	}
	rounds, stopped := nw.Run(handlers, 100, func(round int) bool { return round == 7 })
	if rounds != 7 || !stopped {
		t.Fatalf("Run returned (%d, %v)", rounds, stopped)
	}
	rounds, stopped = nw.Run(handlers, 5, nil)
	if rounds != 5 || stopped {
		t.Fatalf("Run without stop returned (%d, %v)", rounds, stopped)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindIntroduce:   "INTRODUCE",
		KindPullRequest: "PULL-REQ",
		KindPullReply:   "PULL-REPLY",
		KindHello:       "HELLO",
		Kind(42):        "Kind(42)",
	} {
		if k.String() != want {
			t.Fatalf("Kind %d string %q want %q", k, k.String(), want)
		}
	}
}
