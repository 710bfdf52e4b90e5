package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gossipdisc/internal/rng"
)

// minOps is the fewest timed ops a run reports a median over.
const minOps = 5

// opSample is one timed op's raw measurements.
type opSample struct {
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	Proposals int     `json:"proposals"`
	Events    int     `json:"events"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Failure   string  `json:"failure,omitempty"`
}

// value is one reported metric. Timings carry the quartiles of the per-op
// samples and their count; single readings (memory) leave them zero.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// endToEndResult is one workload's end-to-end pass.
type endToEndResult struct {
	// Attempted and Failed count the warm-up op too.
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Ops       []opSample       `json:"ops"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs w's end-to-end pass: closed loop, one client. One warm-up
// op (discarded, same generator as timed op 1, so the two Results must be
// equal), then timed ops — at least minOps, and on until budget has
// elapsed — with a collection between ops outside the timed regions.
//
// The pass runs on one processor. The driver and every engine this pass
// configures are single-threaded, so a second processor only changes where
// the collector's background workers run, and how much of a second core a
// shared two-core box hands out varies by the minute: with it, set-up times
// of the allocation-heavy workloads moved by 45% and sparse-1m's run by 12%
// between two sets of ten runs of one binary.
func measure(w workload, seed uint64, budget time.Duration) endToEndResult {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := endToEndResult{Metrics: map[string]value{}}
	fail := func(what string, err error) string {
		res.Failed++
		msg := fmt.Sprintf("%s: %v", what, err)
		res.Failures = append(res.Failures, msg)
		return msg
	}

	root := rng.New(seed)
	first := root.Split()
	warmGen := *first
	res.Attempted++
	warm := w.setup(&warmGen)
	warm.run()
	warmOut, err := warm.verify(true)
	if err != nil {
		fail("warm-up", err)
	}
	warm = op{}

	var heap uint64
	start := time.Now()
	for k := 0; ; k++ {
		r := first
		if k > 0 {
			r = root.Split()
		}
		runtime.GC()
		resetPeakRSS()
		res.Attempted++
		t0 := time.Now()
		o := w.setup(r)
		t1 := time.Now()
		o.run()
		t2 := time.Now()

		out, err := o.verify(false)
		if err == nil && k == 0 && out.result != warmOut.result {
			err = fmt.Errorf("replay of the warm-up's seed gave %+v, warm-up gave %+v", out.result, warmOut.result)
		}
		s := opSample{SetupS: t1.Sub(t0).Seconds(), RunS: t2.Sub(t1).Seconds(), Proposals: out.proposals, Events: out.events,
			PeakRSSMB: peakRSSMiB()}
		if err != nil {
			s.Failure = fail(fmt.Sprintf("op %d", k+1), err)
		}
		res.Ops = append(res.Ops, s)

		if k+1 >= minOps && time.Since(start) >= budget {
			// Last op: live heap with its graph and session still reachable.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heap = ms.HeapAlloc
			runtime.KeepAlive(o)
			break
		}
	}

	for _, name := range []string{"setup_s", "run_s", "proposals_per_s", "events_per_s", "peak_rss_mb"} {
		samples := samplesOf(&res, name)
		q1, med, q3 := quartiles(samples)
		res.Metrics[name] = value{Value: med, Unit: unitOf(name), Q1: q1, Q3: q3, N: len(samples)}
	}
	res.Metrics["heap_mb"] = value{Value: float64(heap) / (1 << 20), Unit: unitOf("heap_mb")}
	res.Metrics["fail_share"] = value{Value: float64(res.Failed) / float64(res.Attempted), Unit: unitOf("fail_share")}
	return res
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so that the next reading is one op's peak and the
// reported figure a median over ops: one collection that finishes late
// overshoots the heap goal by a quarter, and a process-wide peak would
// report that one op. Where the kernel refuses, readings stay cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads this process's resident-set high-water mark (VmHWM) from
// /proc; 0 where the file or the field does not exist.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
