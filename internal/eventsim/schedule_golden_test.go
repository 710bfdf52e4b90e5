package eventsim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
)

// scheduleDigest runs push on a cycle under the given rates and returns the
// tap's fingerprint of its activation sequence and its event count. mutate,
// if non-nil, runs before every Step.
func scheduleDigest(seed uint64, rates *RateMap, maxEvents int, mutate func(step int, s *Session)) (digest uint64, events int) {
	s := New(gen.Cycle(rates.N()), core.Push{}, rng.New(seed), Config{Rates: rates, MaxEvents: maxEvents})
	h := tap(s)
	for step := 0; ; step++ {
		if mutate != nil {
			mutate(step, s)
		}
		if _, ok := s.Step(); !ok {
			break
		}
	}
	return h.Sum, s.Events()
}

// TestEventScheduleGolden pins the schedule itself: which node fires at
// which time, bit for bit, so any change to the jump chain's draw order,
// its group layout or its stream split shows here. The retuned case parks
// and wakes nodes mid-run and moves a class rate ×100 and back, which moves
// nodes between rate groups between steps.
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
		{name: "uniform-64", seed: 1, rates: Uniform(64), digest: 0x8dab84cb17ca40ff, events: 17412},
		{name: "uniform-1024", seed: 2, rates: Uniform(1024), maxEvents: 200_000, digest: 0xb39027df453da4c6, events: 200_000},
		{name: "skewed", seed: 3, rates: skewed(), digest: 0x09fb0bfc335e08e8, events: 36309},
		{name: "retuned", seed: 4, rates: skewed(), mutate: retune, digest: 0x1dc2358cbda08cf7, events: 46606},
	}
	for _, c := range cases {
		digest, events := scheduleDigest(c.seed, c.rates, c.maxEvents, c.mutate)
		if digest != c.digest || events != c.events {
			t.Errorf("%s: schedule digest %#x over %d events, want %#x over %d",
				c.name, digest, events, c.digest, c.events)
		}
	}
}
