package eventsim

import (
	"math"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
)

// scheduleDigest runs push on a cycle under the given rates and folds the
// activation sequence — (node, bits of the event time), in firing order,
// taken through the hook tap — into the fnv-1a fingerprint the delta goldens
// use. mutate, if non-nil, runs before every Step.
func scheduleDigest(seed uint64, rates *RateMap, maxEvents int, mutate func(step int, s *Session)) (digest uint64, events int) {
	s := New(gen.Cycle(rates.N()), core.Push{}, rng.New(seed), Config{Rates: rates, MaxEvents: maxEvents})
	h := newEventDeltaHash()
	s.hook = func(u int, tt float64) { h.ints(u, int(math.Float64bits(tt))) }
	for step := 0; ; step++ {
		if mutate != nil {
			mutate(step, s)
		}
		if _, ok := s.Step(); !ok {
			break
		}
	}
	return h.h, s.Events()
}

// TestEventScheduleGolden pins the schedule itself. The constants were
// generated by the indexed 4-ary heap this package scheduled with before the
// calendar queue, so they are the proof that swapping the scheduler changed
// no activation, no event time and no draw: a scheduler may change how fast
// the (time, node) minimum is found, never which event it is. The retuned
// case parks and wakes a node mid-run and moves a class rate ×100 and back,
// which re-derives the queue's bucket width with events pending.
func TestEventScheduleGolden(t *testing.T) {
	retune := func(step int, s *Session) {
		switch step {
		case 2:
			s.SetNodeRate(20, 0)
		case 4:
			s.SetClassRate("fast", 800)
		case 5:
			s.SetNodeRate(20, 2)
			s.SetNodeRate(33, 0)
		case 7:
			s.SetClassRate("fast", 8)
			s.SetNodeRate(33, 1)
		}
	}
	cases := []struct {
		name      string
		seed      uint64
		rates     *RateMap
		maxEvents int
		mutate    func(int, *Session)
		digest    uint64
		events    int
	}{
		{name: "uniform-64", seed: 1, rates: Uniform(64), digest: 0x6aac07192b2a937d, events: 21699},
		{name: "uniform-1024", seed: 2, rates: Uniform(1024), maxEvents: 200_000, digest: 0xd3308a495f0843f8, events: 200_000},
		{name: "skewed", seed: 3, rates: skewed(), digest: 0xbe5841a016b726c9, events: 23958},
		{name: "retuned", seed: 4, rates: skewed(), mutate: retune, digest: 0x33a6f6af048e46e2, events: 51472},
	}
	for _, c := range cases {
		digest, events := scheduleDigest(c.seed, c.rates, c.maxEvents, c.mutate)
		if digest != c.digest || events != c.events {
			t.Errorf("%s: schedule digest %#x over %d events, want %#x over %d",
				c.name, digest, events, c.digest, c.events)
		}
	}
}
