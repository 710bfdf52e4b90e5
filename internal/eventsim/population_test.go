package eventsim

import (
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
)

// The event-runtime half of the population contract: the schedule draws
// from its own clock stream, so a uniform Population must reproduce the
// bare process byte for byte, and a mixed population must replay
// bit-for-bit from (seed, roles).

func eventFingerprint(t *testing.T, p core.Process, n int) (Result, uint64) {
	t.Helper()
	g := gen.Path(n)
	dh := newEventDeltaHash()
	res := runHashed(g, p, rng.New(uint64(500+n)), Config{}, dh)
	if !g.IsComplete() {
		t.Fatal("event run did not complete the graph")
	}
	return res, dh.h
}

// TestPopulationUniformByteIdentityEvent: wrapping the process in a
// roleless Population must not change the event-driven trajectory.
func TestPopulationUniformByteIdentityEvent(t *testing.T) {
	const n = 48
	wantRes, wantHash := eventFingerprint(t, core.Push{}, n)
	res, h := eventFingerprint(t, core.NewPopulation(n, core.Push{}), n)
	if res != wantRes {
		t.Fatalf("uniform population diverged on the event runtime:\n bare: %+v\n pop:  %+v", wantRes, res)
	}
	if h != wantHash {
		t.Fatalf("uniform population delta stream diverged (hash %x vs %x)", h, wantHash)
	}
}

// TestPopulationMixedReplayEvent: a mixed population on the event runtime
// replays exactly from (seed, roles), and the roles actually alter the
// trajectory.
func TestPopulationMixedReplayEvent(t *testing.T) {
	const n = 48
	run := func() (Result, uint64) {
		pop, err := core.ParseRoleSpec("byzantine=10%,silent=4", n, core.Push{})
		if err != nil {
			t.Fatal(err)
		}
		g := gen.Path(n)
		dh := newEventDeltaHash()
		res := runHashed(g, pop, rng.New(77), Config{MaxEvents: 4000}, dh)
		return res, dh.h
	}
	res1, h1 := run()
	res2, h2 := run()
	if res1 != res2 || h1 != h2 {
		t.Fatal("mixed event run did not replay from (seed, roles)")
	}
	g := gen.Path(n)
	dh := newEventDeltaHash()
	runHashed(g, core.Push{}, rng.New(77), Config{MaxEvents: 4000}, dh)
	if dh.h == h1 {
		t.Fatal("mixed population produced the uniform event trajectory — roles had no effect")
	}
}
