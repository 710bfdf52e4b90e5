// Heterogeneous activation rates on the event-driven runtime.
//
// A realistic gossip population is not homogeneous: servers gossip
// constantly, laptops now and then, phones only when they wake. This
// example runs discovery with three named rate classes — fast servers,
// slow laptops, and parked phones that do not activate at all — and then
// changes the rates mid-run: at t = 30 the phones wake up at double the
// base rate. The age-of-information columns show what heterogeneity costs
// and what waking the phones buys back: while parked, the phones' peers
// age without bound (max AoI climbs); once awake, the maximum age falls
// back toward the mean within a few time units.
//
// The run is driven step-by-step through the resumable EventSession: one
// Step per unit of simulated time, rates mutated between steps — exactly
// the pattern a live overlay controller would use. Every run is
// bit-replayable from (seed, rates schedule).
//
//	go run ./examples/het-rates
package main

import (
	"fmt"
	"io"
	"os"

	"gossipdisc"
)

func main() { run(os.Stdout) }

// run executes the example and writes its report to w.
func run(w io.Writer) {
	const (
		n        = 256
		phones   = 64 // nodes [192, 256): parked until t = 30
		wakeTime = 30
	)

	g := gossipdisc.Cycle(n)
	rates := gossipdisc.NewRateMap(n, 1) // laptops: base rate 1
	rates.DefineClass("server", 4)
	rates.DefineClass("phone", 0)
	rates.AssignClass("server", 0, 32)
	rates.AssignClass("phone", n-phones, n)

	age := &gossipdisc.Age{}
	sess := gossipdisc.NewEventSession(g,
		gossipdisc.WithSeed(42),
		gossipdisc.WithRates(rates),
		gossipdisc.WithAnalyzers(age),
	)

	fmt.Fprintf(w, "%6s  %8s  %10s  %9s  %9s\n", "time", "events", "missing", "mean AoI", "max AoI")
	report := func() {
		maxAge, _ := age.MaxAge()
		fmt.Fprintf(w, "%6.0f  %8d  %10d  %9.2f  %9.1f\n",
			sess.Time(), sess.Events(), sess.EdgesRemaining(),
			age.MeanAge(), maxAge)
	}

	woke := false
	for {
		_, more := sess.Step()
		if sess.Round() == wakeTime && !woke {
			// The phones wake at double the base rate. SetClassRate
			// refiles every phone into the rate group of its new rate;
			// the sampler holds no pending activation, and the clock is
			// memoryless, so the next activation already follows the new
			// rates and the replayed trajectory depends only on (seed,
			// schedule).
			sess.SetClassRate("phone", 2)
			woke = true
			fmt.Fprintln(w, "--- phones wake at rate 2 ---")
		}
		if sess.Round()%10 == 0 || !more {
			report()
		}
		if !more {
			break
		}
	}

	res := sess.Stats()
	fmt.Fprintf(w, "\nconverged=%v in %.1f time units, %d events (%.1f per node)\n",
		res.Converged, res.Time, res.Events, float64(res.Events)/n)
	fmt.Fprintf(w, "time-averaged mean age of information: %.2f\n", age.TimeAvgMeanAge())
}
