// Package analyze is the incremental health-analyzer pack riding the
// observation bus (internal/stream): connectivity and isolation risk,
// degree-profile drift, stall, and age of information. Each analyzer
// is a stream.Subscriber whose per-event work is O(delta) — it never
// rescans the graph — so the pack can watch a million-node churn run in
// flight without perturbing it. Analyzers work identically on every
// runtime (synchronous, dense-phase, event-driven) because
// they consume only the runtime-agnostic event model.
//
// Analyzers surface problems as Findings — rule-style observations with
// severities, after the dissemination-health signals of Bastopcu et al.
// (*The Role of Gossiping for Information Dissemination over Networked
// Agents*, see PAPERS.md) — and expose their live gauges as O(1)
// accessors, which internal/export bridges onto Prometheus.
package analyze

import (
	"fmt"
	"sort"

	"gossipdisc/internal/stream"
)

// Severity grades a finding.
type Severity uint8

const (
	// SevInfo is a neutral observation.
	SevInfo Severity = iota
	// SevWarning is a degradation worth watching.
	SevWarning
	// SevCritical is a health violation needing attention.
	SevCritical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", uint8(s))
	}
}

// Finding is one rule-style health observation.
type Finding struct {
	// Rule names the check that fired (e.g. "isolation-risk").
	Rule string
	// Severity grades the finding.
	Severity Severity
	// Round is the committed round the finding describes.
	Round int
	// Node is the subject node, or -1 for graph-wide findings.
	Node int
	// Message is the human-readable statement.
	Message string
}

// String renders the finding one-per-line, severity first.
func (f Finding) String() string {
	if f.Node >= 0 {
		return fmt.Sprintf("[%s] %s (round %d, node %d): %s", f.Severity, f.Rule, f.Round, f.Node, f.Message)
	}
	return fmt.Sprintf("[%s] %s (round %d): %s", f.Severity, f.Rule, f.Round, f.Message)
}

// sortFindings orders most severe first, then by rule and node for
// deterministic output.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Node < fs[j].Node
	})
}

// Health bundles the standard analyzer pack — Connectivity, DegreeDrift,
// Stall and Age — behind one subscriber, for one-line session wiring:
//
//	h := analyze.NewHealth()
//	sess.Subscribe(h)
//	... run ...
//	for _, f := range h.Findings() { fmt.Println(f) }
type Health struct {
	Connectivity *Connectivity
	Drift        *DegreeDrift
	Stall        *Stall
	Age          *Age
}

// NewHealth returns the standard pack with default thresholds.
func NewHealth() *Health {
	return &Health{
		Connectivity: NewConnectivity(1),
		Drift:        NewDegreeDrift(0),
		Stall:        NewStall(0),
		Age:          &Age{},
	}
}

// OnEvent implements stream.Subscriber, fanning the event to every
// analyzer in the pack.
func (h *Health) OnEvent(e *stream.Event) {
	h.Connectivity.OnEvent(e)
	h.Drift.OnEvent(e)
	h.Stall.OnEvent(e)
	h.Age.OnEvent(e)
}

// Findings collects the pack's current findings, most severe first.
func (h *Health) Findings() []Finding {
	var fs []Finding
	fs = append(fs, h.Connectivity.Findings()...)
	fs = append(fs, h.Drift.Findings()...)
	fs = append(fs, h.Stall.Findings()...)
	fs = append(fs, h.Age.Findings()...)
	sortFindings(fs)
	return fs
}
