package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"gossipdisc/internal/churn"
	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
)

// The shadow round is only worth timing if it is the engine's round: same
// Result, same final graph, same adjacency order, from the same seed.
func TestShadowMatchesSequentialSession(t *testing.T) {
	for _, p := range []core.Process{core.Push{}, core.Pull{}} {
		for _, b := range []graph.Backend{graph.BackendDense, graph.BackendSparse} {
			want := gen.Cycle(64, b)
			res := sim.Run(want, p, rng.New(7), sim.Config{})

			got := gen.Cycle(64, b)
			sh := newShadow(newTracer(), got, p, rng.New(7), 0)
			for sh.step() {
			}
			if sh.res != res || !got.Equal(want) || digest(got) != digest(want) {
				t.Errorf("%s on %s: shadow %+v, sim.Run %+v, graphs equal %v", p.Name(), b, sh.res, res, got.Equal(want))
			}
			if !res.Converged {
				t.Errorf("%s on %s: reference run did not converge", p.Name(), b)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 1, Start: 15, End: 25},    // grandchild
		{ID: 3, Parent: 0, Start: 30, End: 60},    // overlaps child 1 by 10
		{ID: 4, Parent: 0, Start: 90, End: 120},   // runs past the root's end
		{ID: 5, Parent: -1, Start: 200, End: 250}, // childless root
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 10, 10, 30, 30, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.op = "op"
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.end()
	tr.begin("outer")
	tr.end()
	if got := []int32{tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent}; got[0] != -1 || got[1] != 0 || got[2] != -1 {
		t.Errorf("parents %v, want [-1 0 -1]", got)
	}
	if n := len(tr.durations("op", "outer")); n != 2 {
		t.Errorf("%d outer spans, want 2", n)
	}
	if rows := tr.summary(); len(rows) != 2 || rows[0].Count != 2 || rows[1].Name != "inner" {
		t.Errorf("summary %+v", rows)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4) and
// statistics.median(v).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{7, 1, 3, 5, 2, 6, 4}, 2, 4, 6},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2.25, 4.5, 6.75},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.v)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	runS, _ := findMetric(endToEnd, "run_s")
	perS, _ := findMetric(endToEnd, "proposals_per_s")
	heap, _ := findMetric(endToEnd, "heap_mb")
	fails, _ := findMetric(endToEnd, "fail_share")
	tight := []float64{0.99, 1.00, 1.00, 1.01, 1.00}
	loose := []float64{0.7, 0.9, 1.0, 1.1, 1.3}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"slower beyond the bound", runS, tight, scale(tight, 1.4), worse},
		{"slower inside the bound", runS, tight, scale(tight, 1.2), within},
		{"faster beyond the spread", runS, tight, scale(tight, 0.9), better},
		{"higher is better", perS, tight, scale(tight, 1.2), better},
		{"higher is better, fell", perS, tight, scale(tight, 0.7), worse},
		{"spread wider than the bound", runS, loose, scale(loose, 1.4), unresolved},
		{"wide spread, every sample better", runS, loose, scale(loose, 0.5), better},
	}
	for _, c := range cases {
		if got := judge(c.d, stats.Median(c.a), stats.Median(c.b), c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// Single readings: a share beyond the bound still needs the floor.
	if got := judge(heap, 5, 5.6, nil, nil); got != within {
		t.Errorf("heap +0.6 MiB: %s, want within (under the 1 MiB floor)", got)
	}
	if got := judge(heap, 100, 110, nil, nil); got != worse {
		t.Errorf("heap +10%%: %s, want worse", got)
	}
	if got := judge(fails, 0, 0.1, nil, nil); got != worse {
		t.Errorf("fail_share rise: %s, want worse", got)
	}
	if got := judge(fails, 0, 0, nil, nil); got != within {
		t.Errorf("fail_share flat: %s, want within", got)
	}
}

func TestCompareFlagsRegressionsAndMovedCounts(t *testing.T) {
	file := func(run float64, failed int, rounds float64) resultFile {
		e := endToEndResult{Attempted: 6, Failed: failed, Metrics: map[string]value{}}
		for i := 0; i < 5; i++ {
			e.Ops = append(e.Ops, opSample{SetupS: 0.01, RunS: run, Proposals: 1000, Events: 1000, PeakRSSMB: 20})
		}
		for _, d := range endToEnd {
			e.Metrics[d.name] = value{Value: stats.Median(samplesOf(&e, d.name)), Unit: d.unit}
		}
		e.Metrics["heap_mb"] = value{Value: 10}
		e.Metrics["fail_share"] = value{Value: float64(failed) / 6}
		tr := tracedResult{Metrics: map[string]value{"sim.rounds": {Value: rounds}, "rng.intn_ns": {Value: 3}}}
		return resultFile{Schema: schemaVersion, Workloads: []workloadResult{{Name: "w", EndToEnd: &e, Traced: &tr}}}
	}
	var out bytes.Buffer
	if compare(&out, file(1, 0, 64), file(1.02, 0, 64)) {
		t.Errorf("same-code pair judged regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "same") || strings.Contains(out.String(), "rng.intn_ns") {
		t.Errorf("want an exact-count row and no unbounded layer row:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, file(1, 0, 64), file(1.5, 0, 65)) {
		t.Errorf("50%% slower run not judged regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "moved") {
		t.Errorf("a changed round count must read moved:\n%s", out.String())
	}
	if !compare(&out, file(1, 0, 64), file(1, 1, 64)) {
		t.Error("a rise in fail_share not judged regressed")
	}
}

// An op whose check fails is counted against the attempts and the pass is
// still reported in full.
func TestMeasureCountsFailedOps(t *testing.T) {
	ops := 0
	w := workload{name: "flaky", setup: func(r *rng.Rand) op {
		ops++
		k := ops
		return op{
			run: func() {},
			verify: func(bool) (outcome, error) {
				if k == 3 {
					return outcome{result: 1, proposals: 10, events: 10}, errors.New("forced")
				}
				return outcome{result: 1, proposals: 10, events: 10}, nil
			},
		}
	}}
	res := measure(w, 1, 0)
	if res.Attempted != minOps+1 || res.Failed != 1 || len(res.Failures) != 1 {
		t.Fatalf("attempted %d, failed %d, failures %v; want %d, 1, one", res.Attempted, res.Failed, res.Failures, minOps+1)
	}
	if len(res.Ops) != minOps || res.Ops[1].Failure == "" {
		t.Errorf("ops %+v: want %d samples, the second marked failed", res.Ops, minOps)
	}
	if got, want := res.Metrics["fail_share"].Value, 1.0/float64(minOps+1); got != want {
		t.Errorf("fail_share %v, want %v", got, want)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing from a pass with a failed op", d.name)
		}
	}
}

// A replay of the warm-up's seed that reports a different Result is a
// failed op.
func TestMeasureChecksReplay(t *testing.T) {
	ops := 0
	w := workload{name: "drifting", setup: func(r *rng.Rand) op {
		ops++
		k := ops
		return op{run: func() {}, verify: func(bool) (outcome, error) { return outcome{result: k}, nil }}
	}}
	if res := measure(w, 1, 0); res.Failed != 1 {
		t.Errorf("failed %d, want 1: %v", res.Failed, res.Failures)
	}
}

// Every workload shape passes its own checks at a size that runs in
// milliseconds, and hands the same generator the same simulated work.
func TestWorkloadShapesPassTheirChecks(t *testing.T) {
	shapes := map[string]func(r *rng.Rand) op{
		"round to K_n":    roundSpec{n: 64, backend: graph.BackendDense, proc: core.Push{}}.setup,
		"round to budget": roundSpec{n: 256, backend: graph.BackendSparse, proc: core.Pull{}, cfg: sim.Config{Workers: 1, MaxRounds: 8}}.setup,
		"event":           eventSpec{n: 64, maxEvents: 2000}.setup,
		"churn": churnSpec{cfg: churn.Config{Capacity: 256, InitialMembers: 64, SeedDegree: 3, Rate: 1, Backend: graph.BackendSparse},
			rounds: 50, scrapeEvery: 10}.setup,
		"directed": directedSpec{n: 32, extra: 16, graphs: 2}.setup,
	}
	for name, setup := range shapes {
		res := measure(workload{name: name, setup: setup}, 3, 0)
		if res.Failed != 0 {
			t.Errorf("%s: %v", name, res.Failures)
		}
		if s := res.Ops[0]; s.Proposals <= 0 || s.Events <= 0 {
			t.Errorf("%s: op reported %d proposals, %d events", name, s.Proposals, s.Events)
		}
	}
}

// BENCHMARK.json repeats the tables of this package; they must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the tool has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the tool has %+v", kind, i, got[i], d)
			}
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.bound > 0 {
			gated = append(gated, d)
		}
	}
	same("end-to-end", spec.EndToEnd, gated)
	same("per-layer", spec.PerLayer, perLayer)
}
