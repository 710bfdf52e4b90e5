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
	"net"
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

	// Seed overlay: a ring, so discovery starts from the hardest diameter.
	g := gossipdisc.NewGraphOn(*n, gossipdisc.BackendSparse)
	for u := 0; u < *n; u++ {
		g.AddEdge(u, (u+1)%*n)
	}

	// The observability stack rides the session's event bus: the health
	// pack keeps O(1) gauges, the exporter turns them into Prometheus text.
	health := gossipdisc.NewHealth()
	exporter := gossipdisc.NewPrometheusExporter()
	exporter.Attach(health)

	rates := gossipdisc.NewRateMap(*n, 1)
	sess := gossipdisc.NewEventSession(g,
		gossipdisc.WithSeed(1),
		gossipdisc.WithRates(rates),
		gossipdisc.WithMaxRounds(-1), // open-ended: the dashboard decides when to stop
		gossipdisc.WithAnalyzers(health, exporter),
	)

	// The session steps on this goroutine; the snapshot handler reads the
	// live graph, so it takes the same lock the step loop holds. /metrics
	// needs no lock here — the exporter is internally synchronized.
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.Handle("/metrics", exporter)
	mux.HandleFunc("/snapshot.mmd", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := gossipdisc.WriteGraphMermaid(w, g, gossipdisc.SnapshotOptions{MaxNodes: 64}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ops-dashboard: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving http://%s/metrics and /snapshot.mmd\n", ln.Addr())
	go http.Serve(ln, mux)

	// Churn waves: park a contiguous slice of the population (rate 0 —
	// they stop gossiping entirely) and wake the slice parked last wave.
	// Rate retunes flow through the bus as rate-change events, so the
	// exporter's gossip_rate_changes_total counts each wave.
	const waveSize = 1000
	parkedAt := -1
	nextWave := *churnGap
	wave := 0
	for sess.Time() < *simTime {
		mu.Lock()
		_, more := sess.Step() // one unit of simulated time
		if sess.Time() >= nextWave {
			if parkedAt >= 0 {
				for u := parkedAt; u < parkedAt+waveSize; u++ {
					sess.SetNodeRate(u, 1)
				}
			}
			parkedAt = (wave * waveSize * 7) % (*n - waveSize)
			for u := parkedAt; u < parkedAt+waveSize; u++ {
				sess.SetNodeRate(u, 0)
			}
			wave++
			nextWave += *churnGap
		}
		mu.Unlock()
		fmt.Printf("t=%6.1f  events=%9d  new edges=%9d  mean age=%6.2f\n",
			sess.Time(), sess.Events(), sess.Stats().NewEdges, health.Age.MeanAge())
		if !more {
			break
		}
	}

	fmt.Printf("\nstopped at t=%.1f after %d events and %d churn waves\n",
		sess.Time(), sess.Events(), wave)
	fmt.Println("health findings:")
	for _, f := range health.Findings() {
		fmt.Println(" ", f)
	}
}
