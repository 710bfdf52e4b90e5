// Ops dashboard: a 100k-node discovery swarm under churn, observed live.
//
// A sparse-backend ring of 100,000 nodes runs the event-driven runtime
// (per-node Poisson clocks) while the rate map churns: every few units of
// simulated time a slice of the population parks (rate 0 — crashed, as far
// as the gossip is concerned) and the previously parked slice comes back.
// The whole run is observed through the streaming analyzer bus:
//
//   - /metrics        live Prometheus text-format gauges — run progress,
//     connectivity/isolation-risk, degree profile, stall/AoI — updating
//     every committed round
//   - /snapshot.mmd   Mermaid snapshot of the current overlay (capped to
//     the first nodes; the full graph is far too large to draw), rendered
//     on demand between steps
//
// Attaching all of it changes nothing: the bus dispatches synchronously and
// draws no randomness, so this run is bit-identical to an unobserved one.
//
//	go run ./examples/ops-dashboard              # serves on :9090
//	go run ./examples/ops-dashboard -addr :8080 -n 100000 -time 40
//	curl localhost:9090/metrics
//	curl localhost:9090/snapshot.mmd
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"

	"gossipdisc"
)

func main() {
	var (
		addr     = flag.String("addr", ":9090", "host:port for the metrics/snapshot endpoints")
		n        = flag.Int("n", 100_000, "population size (sparse backend: O(m) memory)")
		simTime  = flag.Float64("time", 60, "units of simulated time to run (one unit ~ one parallel round)")
		churnGap = flag.Float64("churn", 5, "units of simulated time between churn waves")
	)
	flag.Parse()
	if err := validate(*n, *simTime, *churnGap); err != nil {
		fmt.Fprintf(os.Stderr, "ops-dashboard: %v\n", err)
		os.Exit(1)
	}

	d := newDashboard(*n)
	bound, stop, err := gossipdisc.Serve(*addr, d.handler())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ops-dashboard: %v\n", err)
		os.Exit(1)
	}
	defer stop()
	fmt.Printf("serving http://%s/metrics and /snapshot.mmd\n", bound)
	run(os.Stdout, d, *simTime, *churnGap)
}

// waveSize is the number of nodes each churn wave parks.
const waveSize = 1000

// validate reports the first flag value the run cannot use, or nil: a
// wave parks waveSize nodes inside the ring and leaves the rest running,
// and the run and its churn schedule need positive, finite time spans.
func validate(n int, simTime, churnGap float64) error {
	if n <= waveSize || n > math.MaxInt32 {
		return fmt.Errorf("-n must be in [%d, %d]: each churn wave parks %d nodes", waveSize+1, math.MaxInt32, waveSize)
	}
	if !(simTime > 0) || math.IsInf(simTime, 1) {
		return fmt.Errorf("-time must be positive and finite, got %v", simTime)
	}
	if !(churnGap > 0) || math.IsInf(churnGap, 1) {
		return fmt.Errorf("-churn must be positive and finite, got %v", churnGap)
	}
	return nil
}

// dashboard is the observed swarm: an event session over a ring, the
// observability stack riding its bus, and the lock its step loop shares
// with the snapshot handler.
type dashboard struct {
	g        *gossipdisc.Graph
	sess     *gossipdisc.EventSession
	health   *gossipdisc.Health
	exporter *gossipdisc.PrometheusExporter
	mu       sync.Mutex
}

func newDashboard(n int) *dashboard {
	// Seed overlay: a ring, so discovery starts from the hardest diameter.
	g := gossipdisc.NewGraphOn(n, gossipdisc.BackendSparse)
	for u := 0; u < n; u++ {
		g.AddEdge(u, (u+1)%n)
	}

	// The observability stack rides the session's event bus: the health
	// pack keeps O(1) gauges, the exporter turns them into Prometheus text.
	// Scrapes read the pack on the server's goroutines, so it is fed
	// through the exporter's Guard, under the lock the scrapes take.
	health := gossipdisc.NewHealth()
	exporter := gossipdisc.NewPrometheusExporter()
	exporter.Attach(health)

	rates := gossipdisc.NewRateMap(n, 1)
	sess := gossipdisc.NewEventSession(g,
		gossipdisc.WithSeed(1),
		gossipdisc.WithRates(rates),
		gossipdisc.WithMaxRounds(-1), // open-ended: the dashboard decides when to stop
		gossipdisc.WithAnalyzers(exporter.Guard(health), exporter),
	)
	return &dashboard{g: g, sess: sess, health: health, exporter: exporter}
}

// handler serves /metrics and /snapshot.mmd. The session steps on run's
// goroutine, so the snapshot takes the lock the step loop holds to read
// the live graph; the exporter locks for itself.
func (d *dashboard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", d.exporter)
	mux.HandleFunc("/snapshot.mmd", func(w http.ResponseWriter, _ *http.Request) {
		d.mu.Lock()
		defer d.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := gossipdisc.WriteGraphMermaid(w, d.g, gossipdisc.SnapshotOptions{MaxNodes: 64}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// run steps d's session for simTime units of simulated time with a churn
// wave every churnGap units, and writes its report to w.
func run(w io.Writer, d *dashboard, simTime, churnGap float64) {
	n, sess := d.g.N(), d.sess

	// Churn waves: park a contiguous slice of the population (rate 0 —
	// they stop gossiping entirely) and wake the slice parked last wave.
	// Rate retunes flow through the bus as rate-change events, so the
	// exporter's gossip_rate_changes_total counts each wave.
	parkedAt := -1
	nextWave := churnGap
	wave := 0
	for sess.Time() < simTime {
		d.mu.Lock()
		_, more := sess.Step() // one unit of simulated time
		if sess.Time() >= nextWave {
			if parkedAt >= 0 {
				for u := parkedAt; u < parkedAt+waveSize; u++ {
					sess.SetNodeRate(u, 1)
				}
			}
			parkedAt = (wave * waveSize * 7) % (n - waveSize)
			for u := parkedAt; u < parkedAt+waveSize; u++ {
				sess.SetNodeRate(u, 0)
			}
			wave++
			nextWave += churnGap
		}
		d.mu.Unlock()
		fmt.Fprintf(w, "t=%6.1f  events=%9d  new edges=%9d  mean age=%6.2f\n",
			sess.Time(), sess.Events(), sess.Stats().NewEdges, d.health.Age.MeanAge())
		if !more {
			break
		}
	}

	fmt.Fprintf(w, "\nstopped at t=%.1f after %d events and %d churn waves\n",
		sess.Time(), sess.Events(), wave)
	fmt.Fprintln(w, "health findings:")
	for _, f := range d.health.Findings() {
		fmt.Fprintln(w, " ", f)
	}
}
