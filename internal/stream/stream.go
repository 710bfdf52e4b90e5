// Package stream is the runtime-agnostic observation bus: one event model
// and one fan-out surface for everything the engines can report while a run
// is in flight — committed round deltas (undirected and directed),
// membership joins and leaves, activation-rate retunes, and wire-level
// traffic snapshots.
//
// Each runtime owns a Bus and publishes its events into it; any consumer —
// a metrics trajectory, a health analyzer, a Prometheus exporter — is a
// single Subscriber that works identically on all of them, attached through
// the session's Subscribe. It is the only way to observe a run.
//
// # Ordering and determinism contract
//
// Publish dispatches synchronously, on the publishing goroutine, to every
// subscriber in subscription order. The bus draws no randomness, allocates
// nothing on the publish path, and never mutates the payload, so a run's
// Result and delta stream are bit-identical whether zero, one, or fifty
// subscribers are attached — the bus-equivalence rows in internal/sim and
// internal/eventsim pin Result + simtest.Fingerprint across subscriber
// counts and engine families. Events and their payload slices are owned by
// the publisher and reused across rounds: subscribers must copy anything
// they retain.
//
// A Bus is not safe for concurrent use; each session publishes from its own
// stepping goroutine, which is the only goroutine that may touch the bus.
package stream

import (
	"fmt"

	"gossipdisc/internal/graph"
)

// Kind discriminates the event types carried by the bus.
type Kind uint8

const (
	// KindRound is one committed round of an undirected run: Graph, Delta,
	// and Time are set. Emitted by the synchronous round (with or without
	// the dense phase) and the event-driven runtime — Round deltas mean the
	// same thing on all of them.
	KindRound Kind = 1 + iota
	// KindDirectedRound is one committed round of a directed run: Digraph,
	// DirectedDelta, and Time are set.
	KindDirectedRound
	// KindJoin is a membership admission applied between steps
	// (sim.Session.InsertNode): Graph, Node, and Time are set. The next
	// KindRound delta repeats the node in Delta.Joined, so subscribers may
	// consume whichever granularity suits them.
	KindJoin
	// KindLeave is a fail-stop departure (sim.Session.RemoveNode): Graph,
	// Node, and Time are set; the next round delta repeats it in Delta.Left.
	KindLeave
	// KindRateChange is an activation-rate retune on the event-driven
	// runtime: Node (or Class, for whole-class retunes, with Node == -1),
	// Rate, and Time are set.
	KindRateChange
	// KindWireRound is one executed round of the netsim wire: Wire and Time
	// are set with the network's cumulative traffic and impairment counters
	// after the round.
	KindWireRound
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindDirectedRound:
		return "directed-round"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindRateChange:
		return "rate-change"
	case KindWireRound:
		return "wire-round"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// WireStats is the payload of a KindWireRound event: the wire's cumulative
// counters after the round, mirroring netsim.Stats field for field (netsim
// publishes into the bus, so the bus cannot import it).
type WireStats struct {
	Rounds    int
	Sent      int64
	Dropped   int64
	Delivered int64
	IDBits    int64

	PartitionDrops int64
	CrashDrops     int64
	Delayed        int64
	Duplicated     int64
	Reordered      int64
}

// Event is one observation. Kind says which payload fields are meaningful;
// all others hold their zero values. The event and everything it points to
// are owned by the publisher and reused — copy anything retained.
type Event struct {
	Kind Kind
	// Time is the simulated time of the observation: the exact event time
	// on the event-driven runtime, float64(round) elsewhere.
	Time float64
	// Graph / Digraph is the live run graph after the change the event
	// describes (post-commit for rounds, post-mutation for joins/leaves).
	Graph   *graph.Undirected
	Digraph *graph.Directed
	// Delta / DirectedDelta carry the round's change set for KindRound /
	// KindDirectedRound.
	Delta         *RoundDelta
	DirectedDelta *DirectedRoundDelta
	// Node is the subject of KindJoin / KindLeave / KindRateChange
	// (-1 for whole-class rate retunes).
	Node int
	// Rate and Class describe KindRateChange: the new rate, and the class
	// name for class-wide retunes ("" for per-node overrides).
	Rate  float64
	Class string
	// Wire carries KindWireRound's cumulative counters.
	Wire *WireStats
}

// Subscriber consumes bus events. OnEvent is invoked synchronously on the
// publishing goroutine; implementations filter on Kind and must copy any
// payload they retain.
type Subscriber interface {
	OnEvent(e *Event)
}

// SubscriberFunc adapts a function to the Subscriber interface.
type SubscriberFunc func(e *Event)

// OnEvent implements Subscriber.
func (f SubscriberFunc) OnEvent(e *Event) { f(e) }

// Bus fans events out to its subscribers in subscription order. The zero
// value is ready to use (and publishing on an empty bus is a cheap no-op,
// so engines publish unconditionally). Not safe for concurrent use.
type Bus struct {
	subs []Subscriber
	ev   Event // reused publish scratch — keeps the emit helpers alloc-free
}

// Subscribe appends s to the dispatch list. Subscribers cannot be removed;
// attach for the lifetime of the run.
func (b *Bus) Subscribe(s Subscriber) {
	if s == nil {
		panic("stream: Subscribe(nil)")
	}
	b.subs = append(b.subs, s)
}

// Active reports whether any subscriber is attached — publishers use it to
// skip payload preparation entirely on silent buses.
func (b *Bus) Active() bool { return len(b.subs) > 0 }

// Len returns the number of attached subscribers.
func (b *Bus) Len() int { return len(b.subs) }

// Publish dispatches e to every subscriber in subscription order. The
// emit helpers below cover the engines' event shapes; Publish is the
// general entry point for anything else.
func (b *Bus) Publish(e *Event) {
	for _, s := range b.subs {
		s.OnEvent(e)
	}
}

// EmitRound publishes a KindRound event. No-op on an empty bus.
func (b *Bus) EmitRound(g *graph.Undirected, d *RoundDelta, time float64) {
	if len(b.subs) == 0 {
		return
	}
	b.ev = Event{Kind: KindRound, Time: time, Graph: g, Delta: d}
	b.Publish(&b.ev)
}

// EmitDirectedRound publishes a KindDirectedRound event. No-op on an empty
// bus.
func (b *Bus) EmitDirectedRound(g *graph.Directed, d *DirectedRoundDelta, time float64) {
	if len(b.subs) == 0 {
		return
	}
	b.ev = Event{Kind: KindDirectedRound, Time: time, Digraph: g, DirectedDelta: d}
	b.Publish(&b.ev)
}

// EmitMembership publishes a KindJoin or KindLeave event for node u. It
// panics on any other kind. No-op on an empty bus.
func (b *Bus) EmitMembership(kind Kind, g *graph.Undirected, u int, time float64) {
	if kind != KindJoin && kind != KindLeave {
		panic(fmt.Sprintf("stream: EmitMembership(%v)", kind))
	}
	if len(b.subs) == 0 {
		return
	}
	b.ev = Event{Kind: kind, Time: time, Graph: g, Node: u}
	b.Publish(&b.ev)
}

// EmitRateChange publishes a KindRateChange event: node >= 0 with class ""
// for a per-node override, node == -1 with the class name for a class-wide
// retune. No-op on an empty bus.
func (b *Bus) EmitRateChange(node int, class string, rate, time float64) {
	if len(b.subs) == 0 {
		return
	}
	b.ev = Event{Kind: KindRateChange, Time: time, Node: node, Class: class, Rate: rate}
	b.Publish(&b.ev)
}

// EmitWireRound publishes a KindWireRound event. No-op on an empty bus.
func (b *Bus) EmitWireRound(w *WireStats, time float64) {
	if len(b.subs) == 0 {
		return
	}
	b.ev = Event{Kind: KindWireRound, Time: time, Wire: w}
	b.Publish(&b.ev)
}
