package eventsim

import (
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stream"
)

// The event-driven half of the bus-equivalence contract (the synchronous
// engines are covered in internal/sim): Result and delta stream must be
// bit-identical whether deltas are read off Step or the bus, with 0, 1, or
// N subscribers.

// eventDeltaHash folds each round delta into an fnv-1a fingerprint — the
// same fold internal/sim's backend goldens use, minus the fields the event
// runtime never populates differently per backend.
type eventDeltaHash struct{ h uint64 }

func newEventDeltaHash() *eventDeltaHash { return &eventDeltaHash{h: 14695981039346656037} }

func (d *eventDeltaHash) ints(vs ...int) {
	for _, v := range vs {
		d.word(uint64(v))
	}
}

// word folds one 64-bit word, whatever the width of int.
func (d *eventDeltaHash) word(v uint64) {
	d.h ^= v
	d.h *= 1099511628211
}

func (d *eventDeltaHash) observe(g *graph.Undirected, rd *sim.RoundDelta) {
	d.ints(rd.Round, len(rd.NewEdges), rd.EdgesRemaining, rd.Members, rd.MemberEdges)
	for _, e := range rd.NewEdges {
		d.ints(e.U, e.V)
	}
	for i, u := range rd.Touched {
		d.ints(int(u), int(rd.DegreeInc[u]), i)
	}
}

// OnEvent folds every round delta into the hash.
func (d *eventDeltaHash) OnEvent(e *stream.Event) {
	if e.Kind == stream.KindRound {
		d.observe(e.Graph, e.Delta)
	}
}

// runHashed drives a fresh session to completion with dh subscribed.
func runHashed(g *graph.Undirected, p core.Process, r *rng.Rand, cfg Config, dh *eventDeltaHash) Result {
	s := New(g, p, r, cfg)
	s.Subscribe(dh)
	return s.Run()
}

func TestBusEquivalenceEvent(t *testing.T) {
	run := func(nsubs int) (Result, uint64) {
		g := gen.Path(64)
		dh := newEventDeltaHash()
		s := New(g, core.Push{}, rng.New(11), Config{})
		if nsubs >= 1 {
			s.Subscribe(dh)
		}
		for i := 1; i < nsubs; i++ {
			if i == 1 {
				s.Subscribe(analyze.NewHealth())
				continue
			}
			s.Subscribe(stream.SubscriberFunc(func(*stream.Event) {}))
		}
		res := s.Run()
		if !g.IsComplete() {
			t.Fatal("event run did not complete the graph")
		}
		if nsubs == 0 {
			return res, 0
		}
		return res, dh.h
	}

	// Stepped baseline: the deltas Step returns to a session with nothing
	// subscribed.
	g := gen.Path(64)
	s := New(g, core.Push{}, rng.New(11), Config{})
	stepped := newEventDeltaHash()
	for d, _ := s.Step(); d != nil; d, _ = s.Step() {
		stepped.observe(g, d)
	}
	wantRes := s.Stats()
	if !g.IsComplete() {
		t.Fatal("stepped event run did not complete the graph")
	}
	for _, nsubs := range []int{0, 1, 3} {
		res, h := run(nsubs)
		if res != wantRes {
			t.Fatalf("nsubs=%d Result diverged:\n stepped: %+v\n bus:     %+v", nsubs, wantRes, res)
		}
		if nsubs > 0 && h != stepped.h {
			t.Fatalf("nsubs=%d delta stream diverged (hash %x, stepped %x)", nsubs, h, stepped.h)
		}
	}
}
