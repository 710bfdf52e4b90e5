package main

// metricDef names one metric. The names are the repo's vocabulary for
// performance claims: BENCHMARK.json repeats them and a test keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median an end-to-end metric may
	// worsen by before -compare calls it worse; floor is the absolute
	// change below which a worsening is noise whatever its share.
	bound float64
	floor float64
	// exact marks a simulated count that repeats exactly for a seed: a
	// performance change that moves one has changed the simulation.
	exact bool
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. The bounds are sized to what one binary shows on the shared
// two-core sandbox, not to the gain a change hopes to claim: between two
// sets of ten runs on ten seeds the rates moved by up to 13% and spread by
// up to 13% within a set when the neighbours were busy, and run_s carries
// the seed's luck in how many rounds a convergence takes besides (9%
// between runs on directed-512). A claim is made with paired runs; the
// bound only fences regressions. fail_share is carried in the driver
// line's attempted and failed counts rather than its metrics: its healthy
// value is 0, which no relative bound can fence.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.005},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "proposals_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.05, floor: 1},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10, floor: 1},
	{name: "fail_share", unit: "share", better: "lower"},
}

// perLayer are the traced pass's metrics, in ladder order.
var perLayer = []metricDef{
	{name: "rng.intn_ns", unit: "ns", better: "lower"},
	{name: "rng.exp_ns", unit: "ns", better: "lower"},
	{name: "bitset.orword_ns", unit: "ns", better: "lower"},
	{name: "bitset.test_ns", unit: "ns", better: "lower"},
	{name: "graph.dense.neighborpair_ns", unit: "ns", better: "lower"},
	{name: "graph.sparse.neighborpair_ns", unit: "ns", better: "lower"},
	{name: "graph.sparse.hasedge_ns", unit: "ns", better: "lower"},
	{name: "core.push.act_ns_per_node", unit: "ns", better: "lower"},
	{name: "core.pull.act_ns_per_node", unit: "ns", better: "lower"},
	{name: "core.directed.act_ns_per_node", unit: "ns", better: "lower"},
	{name: "core.crashed.act_ns_per_node", unit: "ns", better: "lower"},
	{name: "core.population.act_ns_per_node", unit: "ns", better: "lower"},
	{name: "graph.dense.commit_ns_per_proposal", unit: "ns", better: "lower"},
	{name: "graph.sparse.commit_ns_per_proposal", unit: "ns", better: "lower"},
	{name: "graph.directed.commit_ns_per_proposal", unit: "ns", better: "lower"},
	{name: "graph.sparse.bytes_per_edge", unit: "B", better: "lower"},
	{name: "gen.cycle_ns_per_node", unit: "ns", better: "lower"},
	{name: "gen.strong_ns_per_node", unit: "ns", better: "lower"},
	{name: "go.alloc_mb_per_op", unit: "MiB", better: "lower"},
	{name: "go.allocs_per_op", unit: "count", better: "lower"},
	{name: "go.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms_per_op", unit: "ms", better: "lower"},
	{name: "sim.step_ns_per_proposal", unit: "ns", better: "lower"},
	{name: "sim.act_share", unit: "share", better: "lower"},
	{name: "sim.commit_share", unit: "share", better: "lower"},
	{name: "sim.fill_share", unit: "share", better: "lower"},
	{name: "sim.publish_share", unit: "share", better: "lower"},
	{name: "sim.done_share", unit: "share", better: "lower"},
	{name: "sim.glue_share", unit: "share", better: "lower"},
	{name: "sim.shadow_match", unit: "bool", better: "higher"},
	{name: "sim.step_us_p50", unit: "us", better: "lower"},
	{name: "sim.step_us_p99", unit: "us", better: "lower"},
	{name: "churn.step_us_p50", unit: "us", better: "lower"},
	{name: "churn.step_us_p99", unit: "us", better: "lower"},
	{name: "sim.w1_over_w0", unit: "ratio", better: "lower"},
	{name: "sim.par_speedup", unit: "ratio", better: "higher"},
	{name: "sim.densephase_speedup", unit: "ratio", better: "higher"},
	{name: "sim.directed.step_ns_per_proposal", unit: "ns", better: "lower"},
	{name: "eventsim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.async_ns_per_tick", unit: "ns", better: "lower"},
	{name: "eventsim.sched_overhead_ns", unit: "ns", better: "lower"},
	{name: "eventsim.skew_ns_per_event", unit: "ns", better: "lower"},
	{name: "eventsim.setrate_ns", unit: "ns", better: "lower"},
	{name: "stream.fill_ns_per_edge", unit: "ns", better: "lower"},
	{name: "stream.publish_ns_per_round", unit: "ns", better: "lower"},
	{name: "analyze.health_ns_per_edge", unit: "ns", better: "lower"},
	{name: "metrics.trajectory_ns_per_round", unit: "ns", better: "lower"},
	{name: "export.onevent_ns_per_round", unit: "ns", better: "lower"},
	{name: "export.scrape_us", unit: "us", better: "lower"},
	{name: "export.scrape_bytes", unit: "B", better: "lower"},
	{name: "churn.observed_over_bare", unit: "ratio", better: "lower"},
	{name: "netsim.round_us", unit: "us", better: "lower"},
	{name: "netsim.msgs_per_s", unit: "1/s", better: "higher"},
	{name: "netsim.delivered_share", unit: "share", better: "higher", exact: true},
	{name: "protocol.rounds", unit: "count", better: "lower", exact: true},
	{name: "sim.rounds", unit: "count", better: "lower", exact: true},
	{name: "sim.proposals", unit: "count", better: "lower", exact: true},
	{name: "sim.new_edges", unit: "count", better: "higher", exact: true},
	{name: "graph.commit_accept_share", unit: "share", better: "higher", exact: true},
	{name: "eventsim.events", unit: "count", better: "higher", exact: true},
	{name: "eventsim.new_edges", unit: "count", better: "higher", exact: true},
	{name: "churn.coverage", unit: "share", better: "higher", exact: true},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// layers is one workload's traced-pass metrics by name. A metric the
// workload does not exercise is absent.
type layers map[string]float64

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// unitOf returns the unit of a metric of either table.
func unitOf(name string) string {
	if d, ok := findMetric(endToEnd, name); ok {
		return d.unit
	}
	d, _ := findMetric(perLayer, name)
	return d.unit
}
