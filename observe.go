package gossipdisc

// This file is the root package's observability surface: re-exports of the
// streaming event bus every runtime publishes into (internal/stream), the
// health-analyzer pack that rides it (internal/analyze), and the
// Prometheus/DOT/Mermaid export layers (internal/export). Subscribe through
// Session.Subscribe (every session family has one) or at construction with
// WithAnalyzers; subscribers never perturb results — the bus dispatches
// synchronously on the stepping goroutine and draws no randomness (see
// DESIGN.md "Observing a run").

import (
	"io"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/export"
	"gossipdisc/internal/stream"
)

// Event-bus types (internal/stream). An Event and its delta payloads are
// reused across dispatches — copy anything retained past OnEvent's return.
type (
	// Event is one occurrence on a session's event bus: a committed round,
	// a membership change, a rate retune, or a wire round. Kind selects
	// which payload fields are set.
	Event = stream.Event
	// EventKind discriminates Event payloads.
	EventKind = stream.Kind
	// Subscriber consumes bus events; OnEvent runs synchronously on the
	// stepping goroutine in subscription order.
	Subscriber = stream.Subscriber
	// SubscriberFunc adapts a function to the Subscriber interface.
	SubscriberFunc = stream.SubscriberFunc
	// WireStats is the cumulative traffic and impairment counters carried
	// by KindWireRound events from the netsim wire.
	WireStats = stream.WireStats
)

// Event kinds (see stream.Kind for the per-kind payload contracts).
const (
	// KindRound is one committed round of an undirected run.
	KindRound = stream.KindRound
	// KindDirectedRound is one committed round of a directed run.
	KindDirectedRound = stream.KindDirectedRound
	// KindJoin is a membership admission applied between steps.
	KindJoin = stream.KindJoin
	// KindLeave is a fail-stop departure.
	KindLeave = stream.KindLeave
	// KindRateChange is an activation-rate retune on the event runtime.
	KindRateChange = stream.KindRateChange
	// KindWireRound is one executed round of the netsim wire.
	KindWireRound = stream.KindWireRound
)

// Health analyzers (internal/analyze): each is a Subscriber with O(delta)
// per-round updates and O(1) gauges, safe to leave attached on runs of any
// size.
type (
	// Health bundles the standard analyzer pack — connectivity/isolation
	// risk, degree-profile drift, stall, age of information — behind one
	// Subscriber; Findings() merges and sorts the rule findings.
	Health = analyze.Health
	// Connectivity tracks components and low-degree isolation risk among
	// active nodes via an incremental union-find.
	Connectivity = analyze.Connectivity
	// DegreeDrift tracks the degree profile (mean, CV) and its drift over
	// a sliding window of rounds.
	DegreeDrift = analyze.DegreeDrift
	// Stall watches for rounds without progress.
	Stall = analyze.Stall
	// Age tracks each node's age of information — the time since it last
	// gained an edge — exactly at event times on the event-driven runtime
	// and at round boundaries elsewhere. Its zero value is ready to
	// subscribe.
	Age = analyze.Age
	// Finding is one rule-style health observation.
	Finding = analyze.Finding
	// Severity grades a Finding.
	Severity = analyze.Severity
)

// Finding severities.
const (
	// SevInfo is a neutral observation.
	SevInfo = analyze.SevInfo
	// SevWarning is a degradation worth watching.
	SevWarning = analyze.SevWarning
	// SevCritical is a health violation needing attention.
	SevCritical = analyze.SevCritical
)

// NewHealth returns the standard analyzer pack with default thresholds.
// Subscribe it (WithAnalyzers(h) or sess.Subscribe(h)) and read h.Findings()
// whenever a verdict is needed.
func NewHealth() *Health { return analyze.NewHealth() }

// NewConnectivity returns a connectivity/isolation analyzer flagging active
// nodes with degree <= riskDegree (0 selects the default threshold 1).
func NewConnectivity(riskDegree int) *Connectivity { return analyze.NewConnectivity(riskDegree) }

// NewDegreeDrift returns a degree-profile analyzer with the given drift
// window in rounds (0 selects the default 64).
func NewDegreeDrift(window int) *DegreeDrift { return analyze.NewDegreeDrift(window) }

// NewStall returns a stall analyzer warning after patience rounds
// without a new edge (0 selects the default 50).
func NewStall(patience int) *Stall { return analyze.NewStall(patience) }

// PrometheusExporter is a Subscriber that maintains Prometheus text-format
// (exposition 0.0.4) gauges from bus events and serves them over HTTP — the
// engine behind the binaries' -metrics-addr flag. Safe for concurrent
// OnEvent and scrape.
type PrometheusExporter = export.Prometheus

// NewPrometheusExporter returns an exporter with the built-in run gauges.
// Call Attach(h) to add the analyzer gauges and findings of a Health pack,
// then subscribe both and mount the exporter on any http mux (it is an
// http.Handler).
func NewPrometheusExporter() *PrometheusExporter { return export.NewPrometheus() }

// SnapshotOptions bounds topology snapshot size (MaxNodes; 0 = default cap).
type SnapshotOptions = export.SnapshotOptions

// WriteGraphDOT writes g as a deterministic Graphviz DOT document.
func WriteGraphDOT(w io.Writer, g *Graph, opt SnapshotOptions) error {
	return export.WriteDOT(w, g, opt)
}

// WriteGraphMermaid writes g as a deterministic Mermaid graph block.
func WriteGraphMermaid(w io.Writer, g *Graph, opt SnapshotOptions) error {
	return export.WriteMermaid(w, g, opt)
}
