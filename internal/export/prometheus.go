// Package export turns a live observation bus (internal/stream) into
// standard operational surfaces: Prometheus text-format metrics from a
// long-running session, and DOT / Mermaid topology snapshots. Everything
// here is output-only — exporters subscribe to the bus like any analyzer
// and never perturb the run.
package export

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/stream"
)

// FindingSource is anything that can report current health findings —
// *analyze.Health and every individual analyzer satisfy it.
type FindingSource interface {
	Findings() []analyze.Finding
}

// gaugeFunc is one registered custom gauge, exposed in registration order
// so the exposition output is deterministic.
type gaugeFunc struct {
	name string
	help string
	fn   func() float64
}

// Prometheus is a stream.Subscriber that maintains the standard run
// counters and serves them in Prometheus text exposition format (0.0.4),
// either through WriteTo or as an http.Handler:
//
//	exp := export.NewPrometheus()
//	sess.Subscribe(exp)
//	http.ListenAndServe(addr, exp)
//
// All methods are safe for concurrent use: the run's publishing goroutine
// feeds OnEvent while HTTP scrapes call WriteTo.
type Prometheus struct {
	mu sync.Mutex

	rounds     int64 // round events observed
	round      int   // latest committed round number
	now        float64
	edges      int64 // cumulative accepted edges (arcs on directed runs)
	remaining  int   // pairs (closure arcs) outstanding
	members    int
	memberEdge int
	joins      int64
	leaves     int64
	rateChgs   int64

	hasWire bool
	wire    stream.WireStats

	findings FindingSource
	gauges   []gaugeFunc
}

// NewPrometheus returns an exporter with the built-in metric set.
func NewPrometheus() *Prometheus {
	return &Prometheus{}
}

// OnEvent implements stream.Subscriber.
func (p *Prometheus) OnEvent(e *stream.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case stream.KindRound:
		p.rounds++
		p.round = e.Delta.Round
		p.now = e.Time
		p.edges += int64(len(e.Delta.NewEdges))
		p.remaining = e.Delta.EdgesRemaining
		p.members = e.Delta.Members
		p.memberEdge = e.Delta.MemberEdges
	case stream.KindDirectedRound:
		p.rounds++
		p.round = e.DirectedDelta.Round
		p.now = e.Time
		p.edges += int64(len(e.DirectedDelta.NewArcs))
		p.remaining = e.DirectedDelta.ClosureArcsRemaining
	case stream.KindJoin:
		p.joins++
		p.now = e.Time
	case stream.KindLeave:
		p.leaves++
		p.now = e.Time
	case stream.KindRateChange:
		p.rateChgs++
		p.now = e.Time
	case stream.KindWireRound:
		p.hasWire = true
		p.wire = *e.Wire
		p.now = e.Time
	}
}

// Guard returns sub with its OnEvent run under the exporter's lock, which
// scrapes hold too. An analyzer whose accessors back gauges (Attach,
// AttachAnonymity, Gauge) must be subscribed through it when scrapes can
// arrive during the run. sub must not call the exporter.
func (p *Prometheus) Guard(sub stream.Subscriber) stream.Subscriber {
	return stream.SubscriberFunc(func(e *stream.Event) {
		p.mu.Lock()
		defer p.mu.Unlock()
		sub.OnEvent(e)
	})
}

// Gauge registers a custom gauge evaluated at scrape time, e.g. bridging an
// analyzer accessor:
//
//	exp.Gauge("gossip_components", "Connected components.", func() float64 {
//		return float64(conn.Components())
//	})
//
// Gauges appear in the exposition in registration order. Not safe to call
// concurrently with an in-flight run.
func (p *Prometheus) Gauge(name, help string, fn func() float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gauges = append(p.gauges, gaugeFunc{name: name, help: help, fn: fn})
}

// BridgeFindings exposes src's current findings as
// gossip_findings{rule,severity} counts, evaluated at scrape time.
func (p *Prometheus) BridgeFindings(src FindingSource) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.findings = src
}

// Attach wires the full standard pack: every Health gauge plus the
// findings bridge, in one call.
func (p *Prometheus) Attach(h *analyze.Health) {
	p.Gauge("gossip_components", "Contact-graph components holding active nodes.", func() float64 {
		return float64(h.Connectivity.Components())
	})
	p.Gauge("gossip_nodes_active", "Nodes that have gossiped or joined and not left.", func() float64 {
		return float64(h.Connectivity.Active())
	})
	p.Gauge("gossip_nodes_at_risk", "Active nodes within the isolation threshold.", func() float64 {
		return float64(h.Connectivity.AtRisk())
	})
	p.Gauge("gossip_degree_mean", "Mean contact degree.", h.Drift.Mean)
	p.Gauge("gossip_degree_cv", "Coefficient of variation of the degree profile.", h.Drift.CV)
	p.Gauge("gossip_degree_drift", "Mean-degree growth per round over the drift window.", h.Drift.Drift)
	p.Gauge("gossip_stall_rounds", "Rounds since the last accepted edge.", func() float64 {
		return float64(h.Stall.Stalled())
	})
	p.Gauge("gossip_age_mean", "Mean age of information, in runtime time units.", h.Age.MeanAge)
	p.BridgeFindings(h)
}

// AttachAnonymity wires the source-anonymity gauges of the adversarial
// pack: the observer coalition's posterior statistics over the rumor's
// entry node, evaluated at scrape time.
func (p *Prometheus) AttachAnonymity(a *analyze.Anonymity) {
	p.Gauge("gossip_anonymity_entropy_bits", "Shannon entropy of the coalition's posterior over rumor entry nodes.", a.PosteriorEntropy)
	p.Gauge("gossip_anonymity_source_probability", "Posterior mass the coalition places on the true source.", a.SourceProbability)
	p.Gauge("gossip_anonymity_source_rank", "True source's 1-based rank among the coalition's suspects.", func() float64 {
		return float64(a.SourceRank())
	})
	p.Gauge("gossip_anonymity_witnesses", "Coalition infections observed.", func() float64 {
		return float64(a.Witnesses())
	})
	p.Gauge("gossip_anonymity_infected", "Nodes that know the rumor.", func() float64 {
		return float64(a.InfectedCount())
	})
	p.Gauge("gossip_anonymity_coalition", "Observer coalition size.", func() float64 {
		return float64(a.CoalitionSize())
	})
}

// fmtFloat renders a float the way Prometheus clients expect.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTo writes the current metric values in text exposition format.
// Output is deterministic: built-ins in a fixed order, then wire counters
// (when a wire has published), findings (when bridged, sorted), then custom
// gauges in registration order.
func (p *Prometheus) WriteTo(w io.Writer) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cw := &countWriter{w: w}
	write := func(name, help, typ, val string) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, val)
	}
	write("gossip_rounds_total", "Committed rounds observed on the bus.", "counter", strconv.FormatInt(p.rounds, 10))
	write("gossip_round", "Latest committed round number.", "gauge", strconv.Itoa(p.round))
	write("gossip_time", "Latest event time, in runtime time units.", "gauge", fmtFloat(p.now))
	write("gossip_edges_total", "Cumulative accepted edges (arcs on directed runs).", "counter", strconv.FormatInt(p.edges, 10))
	write("gossip_edges_remaining", "Node pairs (closure arcs) still outstanding.", "gauge", strconv.Itoa(p.remaining))
	write("gossip_members", "Current members (0 when membership is untracked).", "gauge", strconv.Itoa(p.members))
	write("gossip_member_edges", "Edges joining two current members.", "gauge", strconv.Itoa(p.memberEdge))
	write("gossip_joins_total", "Membership joins observed.", "counter", strconv.FormatInt(p.joins, 10))
	write("gossip_leaves_total", "Membership leaves observed.", "counter", strconv.FormatInt(p.leaves, 10))
	write("gossip_rate_changes_total", "Clock-rate changes observed.", "counter", strconv.FormatInt(p.rateChgs, 10))
	if p.hasWire {
		write("gossip_wire_rounds_total", "Wire rounds executed.", "counter", strconv.Itoa(p.wire.Rounds))
		write("gossip_wire_sent_total", "Messages handed to the wire.", "counter", strconv.FormatInt(p.wire.Sent, 10))
		write("gossip_wire_dropped_total", "Messages dropped by the wire.", "counter", strconv.FormatInt(p.wire.Dropped, 10))
		write("gossip_wire_delivered_total", "Messages delivered.", "counter", strconv.FormatInt(p.wire.Delivered, 10))
		write("gossip_wire_id_bits_total", "Node-identifier bits carried.", "counter", strconv.FormatInt(p.wire.IDBits, 10))
		write("gossip_wire_delayed_total", "Messages delayed in flight.", "counter", strconv.FormatInt(p.wire.Delayed, 10))
		write("gossip_wire_duplicated_total", "Messages duplicated in flight.", "counter", strconv.FormatInt(p.wire.Duplicated, 10))
		write("gossip_wire_reordered_total", "Messages reordered in flight.", "counter", strconv.FormatInt(p.wire.Reordered, 10))
	}
	if p.findings != nil {
		p.writeFindings(cw)
	}
	for _, g := range p.gauges {
		write(g.name, g.help, "gauge", fmtFloat(g.fn()))
	}
	return cw.n, cw.err
}

// writeFindings renders gossip_findings{rule,severity} counts, sorted by
// label for deterministic output.
func (p *Prometheus) writeFindings(w io.Writer) {
	counts := map[[2]string]int{}
	for _, f := range p.findings.Findings() {
		counts[[2]string{f.Rule, f.Severity.String()}]++
	}
	keys := make([][2]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(w, "# HELP gossip_findings Current health findings by rule and severity.\n# TYPE gossip_findings gauge\n")
	for _, k := range keys {
		fmt.Fprintf(w, "gossip_findings{rule=%q,severity=%q} %d\n", k[0], k[1], counts[k])
	}
}

// ServeHTTP implements http.Handler, serving the exposition at any path.
func (p *Prometheus) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.WriteTo(w)
}

// countWriter tracks bytes written and the first error, for WriteTo's
// io.WriterTo-shaped contract.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(b []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
	return n, err
}
