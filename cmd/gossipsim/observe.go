package main

import (
	"fmt"
	"os"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/export"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/stream"
)

// observability bundles the optional trial-0 observation surfaces:
// -metrics-addr attaches the standard analyzer pack plus a Prometheus
// exporter and serves the exposition over HTTP until the run is over, and
// -snapshot renders trial 0's final contact graph. A nil *observability
// is valid and inert, so run paths call its methods unconditionally.
type observability struct {
	health   *analyze.Health
	exp      *export.Prometheus
	anon     *analyze.Anonymity
	snapshot string // "dot", "mermaid", or "" (off)
	stop     func() // shuts the metrics endpoint down
}

// newObservability builds the surfaces the flags ask for, binding and
// serving the metrics endpoint immediately; it returns nil when neither
// flag is active.
func newObservability(metricsAddr, snapshot string) *observability {
	o := &observability{}
	if snapshot == "dot" || snapshot == "mermaid" {
		o.snapshot = snapshot
	}
	if metricsAddr != "" {
		o.health = analyze.NewHealth()
		o.exp = export.NewPrometheus()
		o.exp.Attach(o.health)
		addr, stop, err := export.Serve(metricsAddr, o.exp)
		if err != nil {
			fatalf("-metrics-addr: %v", err)
		}
		o.stop = stop
		fmt.Fprintf(os.Stderr, "gossipsim: serving metrics at http://%s/metrics\n", addr)
	}
	if o.health == nil && o.snapshot == "" {
		return nil
	}
	return o
}

// close stops the metrics endpoint, if one is served, once its requests
// in flight are answered.
func (o *observability) close() {
	if o != nil && o.stop != nil {
		o.stop()
	}
}

// active reports whether trial 0 should run through a session so
// subscribers can attach.
func (o *observability) active() bool { return o != nil }

// observeAnonymity arms the source-anonymity analyzer when the metrics
// endpoint is live and the population carries an eavesdropper coalition:
// the coalition watches the rumor entering at node 0 and the
// gossip_anonymity_* gauges expose its posterior. Inert otherwise.
func (o *observability) observeAnonymity(pop *core.Population) {
	if o == nil || o.exp == nil {
		return
	}
	defined := false
	for _, role := range pop.Roles() {
		if role == "eavesdropper" {
			defined = true
		}
	}
	if !defined {
		return
	}
	coalition := pop.Nodes("eavesdropper")
	if len(coalition) == 0 {
		return
	}
	o.anon = analyze.NewAnonymity(0, coalition)
	o.exp.AttachAnonymity(o.anon)
}

// attach subscribes the active surfaces through any session's Subscribe
// method (they all share the signature).
func (o *observability) attach(subscribe func(stream.Subscriber)) {
	if o == nil {
		return
	}
	// The analyzers back the endpoint's gauges, which scrapes read on
	// the server's goroutines: they are fed under the exporter's lock.
	if o.health != nil {
		subscribe(o.exp.Guard(o.health))
	}
	if o.anon != nil {
		subscribe(o.exp.Guard(o.anon))
	}
	if o.exp != nil {
		subscribe(o.exp)
	}
}

// finish prints the health findings and the topology snapshot after
// trial 0; g may be nil when the run has no undirected contact graph.
func (o *observability) finish(g *graph.Undirected) {
	if o == nil {
		return
	}
	if o.health != nil {
		fs := o.health.Findings()
		if o.anon != nil {
			fs = append(fs, o.anon.Findings()...)
		}
		if len(fs) > 0 {
			fmt.Println("\nhealth findings (trial 0):")
			for _, f := range fs {
				fmt.Printf("  %s\n", f)
			}
		}
	}
	if o.snapshot != "" && g != nil {
		fmt.Println()
		var err error
		switch o.snapshot {
		case "dot":
			err = export.WriteDOT(os.Stdout, g, export.SnapshotOptions{})
		case "mermaid":
			err = export.WriteMermaid(os.Stdout, g, export.SnapshotOptions{})
		}
		if err != nil {
			fatalf("-snapshot: %v", err)
		}
	}
}
