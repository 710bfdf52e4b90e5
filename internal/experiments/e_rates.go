package experiments

import (
	"fmt"
	"slices"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/stream"
	"gossipdisc/internal/trace"
)

// rateSkew implements E20 on the event-driven runtime: a fixed
// activation budget (total rate n, matching the uniform-rate baseline) is
// skewed toward a fast eighth of the population — nFast = n/8 nodes at
// rate R, the rest at the rate that keeps the total budget constant. The
// question is what skew buys and what it costs: dissemination time in
// parallel time units, events to convergence, and the age-of-information
// profile (time-averaged mean age from the session's exact event-time
// integral, peak max age from the per-round AoI trajectory). R = 1 is the
// uniform baseline; at the ladder's top the slow supermajority activates
// rarely and ages between updates, so peak max age is where the skew's
// price concentrates.
//
// With cfg.RateSpec set, a second table runs the custom population
// (eventsim rate-spec grammar), resolved against the sweep's largest size.
func rateSkew(cfg Config) ([]*trace.Table, error) {
	ns := cfg.sizes(64, 128, 256)
	trials := cfg.trials(8)
	skews := []float64{1, 2, 4, 6}

	tbl := trace.NewTable(
		fmt.Sprintf("E20: push on the n-cycle, fast eighth at rate R, fixed total rate n (%d trials)", trials),
		"n", "R", "slow", "time", "events/n", "avg AoI", "peak max AoI")
	for ni, n := range ns {
		nFast := n / 8
		for ri, R := range skews {
			slow := (float64(n) - float64(nFast)*R) / float64(n-nFast)
			build := func() *eventsim.RateMap {
				m := eventsim.NewRateMap(n, slow)
				m.DefineClass("fast", R)
				m.AssignClass("fast", 0, nFast)
				return m
			}
			seed := pointSeed(cfg.Seed, uint64(ni), uint64(ri), hashName("e20"))
			cells, err := eventCells(cfg, trials, seed, n, build)
			if err != nil {
				return nil, fmt.Errorf("E20 n=%d R=%v: %w", n, R, err)
			}
			tbl.AddRow(slices.Concat([]string{trace.I(n), trace.F(R, 0), trace.F(slow, 3)}, cells)...)
		}
	}
	out := []*trace.Table{tbl}
	if cfg.RateSpec == "" {
		return out, nil
	}
	n := ns[len(ns)-1]
	if _, err := eventsim.ParseRateSpec(cfg.RateSpec, n); err != nil {
		return out, fmt.Errorf("E20 custom population (resolved at n=%d): %w", n, err)
	}
	custom := trace.NewTable(
		fmt.Sprintf("E20: custom population %q at n=%d (%d trials)", cfg.RateSpec, n, trials),
		"n", "time", "events/n", "avg AoI", "peak max AoI")
	seed := pointSeed(cfg.Seed, uint64(n), hashName("e20-custom"))
	cells, err := eventCells(cfg, trials, seed, n, func() *eventsim.RateMap {
		m, err := eventsim.ParseRateSpec(cfg.RateSpec, n)
		if err != nil {
			panic(err) // validated above
		}
		return m
	})
	if err != nil {
		return out, fmt.Errorf("E20 custom population: %w", err)
	}
	custom.AddRow(slices.Concat([]string{trace.I(n)}, cells)...)
	return append(out, custom), nil
}

// eventCells runs `trials` independent event-runtime pushes on the
// n-cycle under rate maps built fresh per trial (the map is mutable state).
// Each trial records convergence time, events per node, the time-averaged
// mean AoI, and the peak of the max AoI over the round boundaries; the
// returned cells are their means across trials, in that order.
func eventCells(cfg Config, trials int, seed uint64, n int, build func() *eventsim.RateMap) ([]string, error) {
	type trial struct {
		res  eventsim.Result
		age  *analyze.Age
		peak float64
	}
	results := sim.Trials(cfg.TrialWorkers, trials, seed, cycleBuilder(n), func(g *graph.Undirected, r *rng.Rand) trial {
		t := trial{age: &analyze.Age{}}
		s := eventsim.New(g, core.Push{}, r, eventsim.Config{Rates: build()})
		s.Subscribe(t.age)
		s.Subscribe(stream.SubscriberFunc(func(e *stream.Event) {
			if e.Kind != stream.KindRound {
				return
			}
			if m, _ := t.age.MaxAge(); m > t.peak {
				t.peak = m
			}
		}))
		t.res = s.Run()
		return t
	})
	var times, events, avgs, peaks []float64
	for i, t := range results {
		if !t.res.Converged {
			return nil, fmt.Errorf("trial %d did not converge (%+v)", i, t.res)
		}
		times = append(times, t.res.Time)
		events = append(events, float64(t.res.Events)/float64(n))
		avgs = append(avgs, t.age.TimeAvgMeanAge())
		peaks = append(peaks, t.peak)
	}
	return []string{
		trace.F(stats.Mean(times), 1),
		trace.F(stats.Mean(events), 1),
		trace.F(stats.Mean(avgs), 2),
		trace.F(stats.Mean(peaks), 1),
	}, nil
}
