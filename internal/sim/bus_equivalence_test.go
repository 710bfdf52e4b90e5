package sim

import (
	"fmt"
	"testing"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// This file pins the bus half of the determinism contract: subscribing 0, 1,
// or N subscribers to a session's event bus must not change the Result or
// the delta stream, on every engine family (sequential, sharded, dense
// phase; internal/eventsim carries the event-driven variant). The bus
// dispatches synchronously on the stepping goroutine and draws no
// randomness, so any divergence here means a subscriber leaked into the
// engine's schedule or generator stream.

// busRun executes one full undirected run with nsubs bus subscribers and
// returns the Result plus the delta-stream hash (0 when nsubs == 0: a
// silent run has nothing to hash — only the Result is comparable).
func busRun(workers int, densePhase float64, nsubs int) (Result, uint64) {
	g := gen.Cycle(256)
	s := NewSession(g, core.Push{}, rng.New(7), Config{
		Workers: workers, DensePhase: densePhase,
	})
	defer s.Close()
	dh := newDeltaHash()
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
		panic("bus-equivalence run did not complete the graph")
	}
	if nsubs == 0 {
		return res, 0
	}
	return res, dh.h
}

// TestBusEquivalence: across Workers {0, 1, 4} and dense phase off/on, a
// run with 0, 1, or 3 bus subscribers (one of them a full analyzer pack)
// produces the identical Result, and every subscribed run the identical
// delta-stream hash — which must also match the stream Step returns to a
// session with nothing subscribed.
func TestBusEquivalence(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		for _, dense := range []float64{0, 0.3} {
			workers, dense := workers, dense
			t.Run(fmt.Sprintf("w=%d/dense=%v", workers, dense), func(t *testing.T) {
				// Stepped baseline: same seed, same topology, the deltas
				// read off Step's return value.
				g := gen.Cycle(256)
				s := NewSession(g, core.Push{}, rng.New(7), Config{Workers: workers, DensePhase: dense})
				defer s.Close()
				stepped := newDeltaHash()
				for d, _ := s.Step(); d != nil; d, _ = s.Step() {
					stepped.observe(g, d)
				}
				wantRes := s.Stats()
				for _, nsubs := range []int{0, 1, 3} {
					res, h := busRun(workers, dense, nsubs)
					if res != wantRes {
						t.Fatalf("nsubs=%d Result diverged:\n stepped: %+v\n bus:     %+v", nsubs, wantRes, res)
					}
					if nsubs > 0 && h != stepped.h {
						t.Fatalf("nsubs=%d delta stream diverged (hash %x, stepped %x)", nsubs, h, stepped.h)
					}
				}
			})
		}
	}
}

// TestSessionZeroAllocStepWithAnalyzer: attaching the full analyzer pack
// plus a no-op subscriber keeps the steady-state Step allocation-free — the
// bus reuses its event scratch and every analyzer updates in place.
func TestSessionZeroAllocStepWithAnalyzer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, workers := range []int{0, 1, 4} {
		g := gen.Star(64)
		s := NewSession(g, fixedProbe{}, rng.New(1), Config{Workers: workers, MaxRounds: -1})
		s.Subscribe(analyze.NewHealth())
		s.Subscribe(stream.SubscriberFunc(func(*stream.Event) {}))
		for i := 0; i < 50; i++ { // warm the buffers, delta state, analyzers
			s.Step()
		}
		if extra := testing.AllocsPerRun(200, func() { s.Step() }); extra > 0 {
			t.Errorf("Workers=%d: steady-state Step with analyzers allocates %v", workers, extra)
		}
		s.Close()
	}
}
