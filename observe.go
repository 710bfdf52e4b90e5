package gossipdisc

// This file is the root package's observability surface: the streaming
// event bus every runtime publishes into (internal/stream), the
// health-analyzer pack that rides it (internal/analyze), and the
// Prometheus/Mermaid export layers (internal/export). Subscribe through
// Session.Subscribe / EventSession.Subscribe or at construction with
// WithAnalyzers; subscribers never perturb results — the bus dispatches
// synchronously on the stepping goroutine and draws no randomness (see
// DESIGN.md "Observing a run").

import (
	"io"
	"net"
	"net/http"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/export"
	"gossipdisc/internal/stream"
)

// Event-bus types (internal/stream). An Event and its delta payloads are
// reused across dispatches — copy anything retained past OnEvent's return.
type (
	// Event is one occurrence on a session's event bus: a committed round,
	// a membership change, or a rate retune. Kind selects which payload
	// fields are set.
	Event = stream.Event
	// Subscriber consumes bus events; OnEvent runs synchronously on the
	// stepping goroutine in subscription order.
	Subscriber = stream.Subscriber
	// SubscriberFunc adapts a function to the Subscriber interface.
	SubscriberFunc = stream.SubscriberFunc
)

// KindRound is the Event kind of one committed round of an undirected
// run; its Delta carries the new edges.
const KindRound = stream.KindRound

// Health analyzers (internal/analyze): each is a Subscriber with O(delta)
// per-round updates and O(1) gauges, safe to leave attached on runs of any
// size.
type (
	// Health bundles the standard analyzer pack — connectivity/isolation
	// risk, degree-profile drift, stall, age of information — behind one
	// Subscriber; Findings() merges and sorts the rule findings.
	Health = analyze.Health
	// Age tracks each node's age of information — the time since it last
	// gained an edge — exactly at event times on the event-driven runtime
	// and at round boundaries elsewhere. Its zero value is ready to
	// subscribe.
	Age = analyze.Age
)

// NewHealth returns the standard analyzer pack with default thresholds.
// Subscribe it (WithAnalyzers(h) or sess.Subscribe(h)) and read h.Findings()
// whenever a verdict is needed.
func NewHealth() *Health { return analyze.NewHealth() }

// PrometheusExporter is a Subscriber that maintains Prometheus text-format
// (exposition 0.0.4) gauges from bus events and serves them over HTTP — the
// engine behind the binaries' -metrics-addr flag. Safe for concurrent
// OnEvent and scrape.
type PrometheusExporter = export.Prometheus

// NewPrometheusExporter returns an exporter with the built-in run gauges.
// Call Attach(h) to add the analyzer gauges and findings of a Health pack,
// then subscribe both — h through Guard(h) when scrapes can arrive during
// the run — and mount the exporter on any http mux (it is an
// http.Handler).
func NewPrometheusExporter() *PrometheusExporter { return export.NewPrometheus() }

// SnapshotOptions bounds topology snapshot size (MaxNodes; 0 = default cap).
type SnapshotOptions = export.SnapshotOptions

// WriteGraphMermaid writes g as a deterministic Mermaid graph block.
func WriteGraphMermaid(w io.Writer, g *Graph, opt SnapshotOptions) error {
	return export.WriteMermaid(w, g, opt)
}

// Serve listens on addr and serves h — an exporter, a dashboard's mux —
// in the background. It returns the bound address and a stop func that
// shuts the server down once its requests in flight are answered.
func Serve(addr string, h http.Handler) (net.Addr, func(), error) { return export.Serve(addr, h) }
