package stream

import (
	"testing"

	"gossipdisc/internal/graph"
)

// TestBusDispatchOrder pins the ordering contract: subscribers fire
// synchronously, in subscription order, for every publish.
func TestBusDispatchOrder(t *testing.T) {
	var b Bus
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		b.Subscribe(SubscriberFunc(func(e *Event) {
			order = append(order, i)
		}))
	}
	if b.Len() != 5 || !b.Active() {
		t.Fatalf("Len/Active = %d/%v, want 5/true", b.Len(), b.Active())
	}
	b.EmitRound(nil, &RoundDelta{Round: 1}, 1)
	b.EmitRound(nil, &RoundDelta{Round: 2}, 2)
	want := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("dispatched %d times, want %d", len(order), len(want))
	}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestBusEmptyIsNoOp checks that publishing on a subscriber-less bus does
// nothing (engines publish unconditionally, so this must be free).
func TestBusEmptyIsNoOp(t *testing.T) {
	var b Bus
	if b.Active() || b.Len() != 0 {
		t.Fatalf("zero bus reports Active=%v Len=%d", b.Active(), b.Len())
	}
	// None of these may panic or retain anything.
	b.EmitRound(nil, nil, 0)
	b.EmitDirectedRound(nil, nil, 0)
	b.EmitMembership(KindJoin, nil, 3, 0)
	b.EmitRateChange(3, "", 2, 0)
	b.EmitWireRound(nil, 0)
}

// TestBusEventPayloads checks each emit helper sets exactly its kind's
// fields and resets the scratch between publishes (no stale cross-kind
// payload leaks through the reused Event).
func TestBusEventPayloads(t *testing.T) {
	var b Bus
	var last Event
	b.Subscribe(SubscriberFunc(func(e *Event) { last = *e }))

	g := graph.NewUndirected(4)
	d := &RoundDelta{Round: 7}
	b.EmitRound(g, d, 7)
	if last.Kind != KindRound || last.Graph != g || last.Delta != d || last.Time != 7 {
		t.Fatalf("round event = %+v", last)
	}

	b.EmitMembership(KindLeave, g, 2, 8)
	if last.Kind != KindLeave || last.Node != 2 || last.Time != 8 {
		t.Fatalf("leave event = %+v", last)
	}
	if last.Delta != nil {
		t.Fatalf("leave event leaked previous round's delta: %+v", last.Delta)
	}

	b.EmitRateChange(-1, "mobile", 0.25, 9.5)
	if last.Kind != KindRateChange || last.Node != -1 || last.Class != "mobile" || last.Rate != 0.25 {
		t.Fatalf("rate event = %+v", last)
	}

	w := &WireStats{Rounds: 3, Sent: 12}
	b.EmitWireRound(w, 3)
	if last.Kind != KindWireRound || last.Wire != w {
		t.Fatalf("wire event = %+v", last)
	}
	if last.Class != "" || last.Rate != 0 {
		t.Fatalf("wire event leaked rate payload: %+v", last)
	}
}

// TestBusEmitMembershipRejectsOtherKinds pins the misuse panic.
func TestBusEmitMembershipRejectsOtherKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EmitMembership(KindRound) did not panic")
		}
	}()
	var b Bus
	b.EmitMembership(KindRound, nil, 0, 0)
}

// TestBusSubscribeNilPanics pins the nil-subscriber panic.
func TestBusSubscribeNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe(nil) did not panic")
		}
	}()
	var b Bus
	b.Subscribe(nil)
}

// TestBusPublishZeroAlloc pins the allocation-free dispatch contract: a
// warm bus publishing round events to multiple subscribers allocates
// nothing.
func TestBusPublishZeroAlloc(t *testing.T) {
	var b Bus
	sink := 0
	for i := 0; i < 3; i++ {
		b.Subscribe(SubscriberFunc(func(e *Event) {
			if e.Kind == KindRound {
				sink += e.Delta.Round
			}
		}))
	}
	g := graph.NewUndirected(8)
	d := &RoundDelta{Round: 1}
	b.EmitRound(g, d, 1) // warm-up
	allocs := testing.AllocsPerRun(200, func() {
		b.EmitRound(g, d, 2)
		b.EmitMembership(KindJoin, g, 1, 2)
		b.EmitRateChange(1, "", 0.5, 2)
	})
	if allocs != 0 {
		t.Fatalf("publish allocates %v per round, want 0", allocs)
	}
	_ = sink
}

// TestDeltaAccumulatorFill checks the shared fill against a hand-computed
// round, including the reset of the previous round's increments.
func TestDeltaAccumulatorFill(t *testing.T) {
	g := graph.NewUndirected(5)
	a := NewDeltaAccumulator(5)

	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	a.Fill(1, g, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	d := &a.D
	if d.Round != 1 || len(d.NewEdges) != 2 {
		t.Fatalf("round 1 delta: %+v", d)
	}
	if want := []int32{0, 1, 2}; len(d.Touched) != 3 || d.Touched[0] != want[0] || d.Touched[1] != want[1] || d.Touched[2] != want[2] {
		t.Fatalf("round 1 Touched = %v, want %v", d.Touched, want)
	}
	if d.DegreeInc[0] != 1 || d.DegreeInc[1] != 2 || d.DegreeInc[2] != 1 {
		t.Fatalf("round 1 DegreeInc = %v", d.DegreeInc)
	}
	if d.EdgesRemaining != g.MissingEdges() {
		t.Fatalf("EdgesRemaining = %d, want %d", d.EdgesRemaining, g.MissingEdges())
	}
	if d.MissingDegree == nil || d.MissingDegree(3) != g.MissingDegree(3) {
		t.Fatalf("MissingDegree not bound to the live graph")
	}

	g.AddEdge(3, 4)
	a.Fill(2, g, []graph.Edge{{U: 3, V: 4}})
	if d.DegreeInc[0] != 0 || d.DegreeInc[1] != 0 || d.DegreeInc[2] != 0 {
		t.Fatalf("round 2 did not reset previous increments: %v", d.DegreeInc)
	}
	if len(d.Touched) != 2 || d.DegreeInc[3] != 1 || d.DegreeInc[4] != 1 {
		t.Fatalf("round 2 delta: touched %v inc %v", d.Touched, d.DegreeInc)
	}
}

// TestDirectedDeltaAccumulatorFill is the directed counterpart.
func TestDirectedDeltaAccumulatorFill(t *testing.T) {
	a := NewDirectedDeltaAccumulator(4)
	a.Fill(1, []graph.Arc{{U: 0, V: 1}, {U: 0, V: 2}, {U: 3, V: 1}}, 9)
	d := &a.D
	if d.Round != 1 || d.ClosureArcsRemaining != 9 || len(d.NewArcs) != 3 {
		t.Fatalf("round 1 delta: %+v", d)
	}
	if len(d.OutTouched) != 2 || d.OutDegreeInc[0] != 2 || d.OutDegreeInc[3] != 1 {
		t.Fatalf("out increments: touched %v inc %v", d.OutTouched, d.OutDegreeInc)
	}
	if len(d.InTouched) != 2 || d.InDegreeInc[1] != 2 || d.InDegreeInc[2] != 1 {
		t.Fatalf("in increments: touched %v inc %v", d.InTouched, d.InDegreeInc)
	}
	a.Fill(2, nil, 9)
	if d.OutDegreeInc[0] != 0 || d.InDegreeInc[1] != 0 {
		t.Fatalf("round 2 did not reset previous increments")
	}
}

// TestKindString covers the Stringer.
func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindRound:         "round",
		KindDirectedRound: "directed-round",
		KindJoin:          "join",
		KindLeave:         "leave",
		KindRateChange:    "rate-change",
		KindWireRound:     "wire-round",
		Kind(99):          "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}
