package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"gossipdisc/internal/stats"
)

// Verdicts of -compare, one per (metric, workload).
const (
	better     = "better"
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved"
)

// samplesOf returns the per-op samples behind one of a pass's timing
// metrics; nil for a single reading such as heap_mb.
func samplesOf(e *endToEndResult, name string) []float64 {
	var f func(opSample) float64
	switch name {
	case "setup_s":
		f = func(s opSample) float64 { return s.SetupS }
	case "run_s":
		f = func(s opSample) float64 { return s.RunS }
	case "proposals_per_s":
		f = func(s opSample) float64 { return float64(s.Proposals) / s.RunS }
	case "events_per_s":
		f = func(s opSample) float64 { return float64(s.Events) / s.RunS }
	case "peak_rss_mb":
		f = func(s opSample) float64 { return s.PeakRSSMB }
	default:
		return nil
	}
	out := make([]float64, len(e.Ops))
	for i, s := range e.Ops {
		out[i] = f(s)
	}
	return out
}

// judge applies d's own direction and bound to baseline a against
// candidate b (medians, with the per-op samples behind them when the
// metric has any).
//
// A spread between a's quartiles wider than the bound cannot resolve a
// change of the bound's size: the verdict is unresolved, unless every
// sample of b reads better than every sample of a. Otherwise b is worse
// when its median is worse by more than the bound (and the floor), better
// when it is better by more than a's spread (and the floor), else within.
func judge(d metricDef, a, b float64, aSamples, bSamples []float64) string {
	sign := 1.0 // worsening is positive
	if d.better == "higher" {
		sign = -1
	}
	if d.bound == 0 {
		// fail_share: any rise is a regression.
		switch {
		case b > a:
			return worse
		case b < a:
			return better
		}
		return within
	}
	spread := 0.0
	if len(aSamples) > 1 {
		q1, med, q3 := quartiles(aSamples)
		spread = (q3 - q1) / med
	}
	if spread > d.bound {
		lo, hi := aSamples, bSamples // every hi above every lo means better
		if d.better == "lower" {
			lo, hi = bSamples, aSamples
		}
		if len(bSamples) > 0 && stats.Max(lo) < stats.Min(hi) {
			return better
		}
		return unresolved
	}
	change := sign * (b - a) / a
	switch {
	case math.Abs(b-a) < d.floor:
		return within
	case change > d.bound:
		return worse
	case -change > spread:
		return better
	}
	return within
}

// compare prints one row per (end-to-end metric, workload) that both files
// carry, then one per exact simulated count, and reports whether any row
// is worse — which any rise in fail_share is.
func compare(w io.Writer, a, b resultFile) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tchange\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := findWorkload(b, wa.Name)
		if !ok {
			continue
		}
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			for _, d := range endToEnd {
				va, vb := wa.EndToEnd.Metrics[d.name], wb.EndToEnd.Metrics[d.name]
				v := judge(d, va.Value, vb.Value, samplesOf(wa.EndToEnd, d.name), samplesOf(wb.EndToEnd, d.name))
				regressed = regressed || v == worse
				change := "-"
				if va.Value != 0 {
					change = fmt.Sprintf("%+.1f%%", 100*(vb.Value-va.Value)/va.Value)
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%.0f%%\t%s\n",
					wa.Name, d.name, va.Value, vb.Value, d.unit, change, 100*d.bound, v)
			}
		}
		if wa.Traced != nil && wb.Traced != nil {
			for _, d := range perLayer {
				va, oka := wa.Traced.Metrics[d.name]
				vb, okb := wb.Traced.Metrics[d.name]
				if !d.exact || !oka || !okb {
					continue
				}
				v := "same"
				if va.Value != vb.Value {
					v = "moved"
				}
				fmt.Fprintf(tw, "%s\t%s\t%.10g\t%.10g\t%s\t-\texact\t%s\n", wa.Name, d.name, va.Value, vb.Value, d.unit, v)
			}
		}
	}
	tw.Flush()
	return regressed
}

func findWorkload(rf resultFile, name string) (workloadResult, bool) {
	for _, w := range rf.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}
