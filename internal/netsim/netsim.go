// Package netsim is a synchronous message-passing network simulator: the
// substrate on which package protocol realizes the paper's gossip processes
// as genuine distributed protocols with O(log n)-bit messages.
//
// The model matches the paper's: computation proceeds in synchronous
// rounds; a message sent in round t is delivered at the start of round t+1;
// each message carries at most one node identifier (⌈log₂ n⌉ bits) plus a
// constant-size header. The simulator meters messages and bits, and an
// optional chaos Scenario (see scenario.go) impairs the wire between
// routing and delivery: per-link loss, fixed+jittered delay, reordering,
// duplication, asymmetric links, partitions that heal, and crash/restart
// churn — all timed in phases and all replayable bit-for-bit from
// (seed, scenario). Uniform i.i.d. loss is the one-phase DropScenario.
//
// A round runs on the caller's goroutine: the live handlers act one at a
// time in node order, each on its own split generator, and each one's
// output is routed before the next acts. Every impairment decision draws
// from a dedicated split stream in sender order, so a run is a pure
// function of (seed, scenario).
package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"gossipdisc/internal/rng"
	"gossipdisc/internal/stream"
)

// Kind tags the protocol meaning of a message.
type Kind uint8

// Message kinds used by the discovery protocols.
const (
	// KindIntroduce carries a contact's ID: "meet Payload".
	KindIntroduce Kind = iota
	// KindPullRequest asks the receiver for a random contact.
	KindPullRequest
	// KindPullReply answers with a random contact's ID.
	KindPullReply
	// KindHello announces the sender's own ID to a new contact.
	KindHello
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindIntroduce:
		return "INTRODUCE"
	case KindPullRequest:
		return "PULL-REQ"
	case KindPullReply:
		return "PULL-REPLY"
	case KindHello:
		return "HELLO"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is a single O(log n)-bit datagram: a header plus at most one node
// identifier in Payload (negative payload = no identifier).
type Message struct {
	From, To int
	Kind     Kind
	Payload  int
}

// Handler is the per-node protocol logic. HandleRound is called exactly
// once per round with the messages delivered this round (sent during the
// previous round), and returns the node's outgoing messages. The network
// reuses the inbox's storage in later rounds: copy anything retained. It
// copies the returned messages out before the next handler runs and keeps
// no reference to the slice, so a handler may reuse one output buffer
// every round.
type Handler interface {
	HandleRound(round int, inbox []Message, r *rng.Rand) []Message
}

// CrashAware is an optional Handler extension. When a Scenario crashes or
// restarts a node, the network calls these hooks at the start of the
// transition round (in node order, before any handler runs). While down, a
// node's handler is not invoked, its generator is frozen, and messages
// addressed to it are lost; its state survives the outage — what, if
// anything, to discard on restart is the handler's decision.
type CrashAware interface {
	Crashed(round int)
	Restarted(round int)
}

// Config controls a Network.
type Config struct {
	// Seed derives the network's internal generators (per-node handler
	// generators and the scenario impairment streams).
	Seed uint64
	// Scenario optionally installs a chaos schedule on the wire.
	// nil means a pristine wire.
	Scenario *Scenario
	// Workers is ignored: a round runs its handlers one at a time on the
	// caller's goroutine. The field is kept only because cmd/bench still
	// sets it; ROADMAP item 1 deletes it. A negative value still panics.
	Workers int
}

// Stats meters network traffic.
type Stats struct {
	Rounds    int
	Sent      int64 // messages handed to the network
	Dropped   int64 // messages lost for any reason (loss, partition, crash)
	Delivered int64 // message copies delivered to inboxes
	// IDBits is the total identifier payload volume in bits: one
	// ⌈log₂ n⌉-bit ID per message with a non-negative payload.
	IDBits int64

	// Scenario pipeline counters (all zero on a pristine wire).
	PartitionDrops int64 // messages lost crossing an active partition
	CrashDrops     int64 // messages lost to a receiver that was down at delivery
	Delayed        int64 // copies buffered at least one extra round
	Duplicated     int64 // extra copies created by duplication
	Reordered      int64 // copies detached from sender-sorted inbox order
}

// queued is a message copy in flight, waiting for its delivery round.
type queued struct {
	msg     Message
	reorder bool   // detached from the deterministic inbox sort
	key     uint64 // random inbox position for reordered copies
}

// Network is a synchronous message-passing network over n nodes.
type Network struct {
	n        int
	nodeRNGs []*rng.Rand

	// Scenario impairment streams, one per concern so scenarios compose
	// without perturbing each other's draws.
	lossRNG, delayRNG, dupRNG, reorderRNG *rng.Rand

	scn     *compiledScenario
	pending map[int][]queued // delivery round -> in-flight copies, arrival order
	down    []bool           // crash state as of the last executed round
	closed  bool
	stats   Stats
	idBits  int

	// Delivery scratch, reused round after round: each node's inbox and
	// its copies before the sort, the copies of one inbox detached from
	// the sort, and the storage of the last delivered batch, which the
	// next new delivery round takes.
	inboxes   [][]Message
	perNode   [][]queued
	reordered []queued
	spare     []queued

	// Observation bus: a KindWireRound event with the cumulative counters
	// fires at the end of every executed round. Publishing happens after
	// all routing and touches no generator stream, so a subscribed wire is
	// bit-identical to a silent one. wireStats is the reused event payload.
	bus       stream.Bus
	wireStats stream.WireStats
}

// New returns a network of n nodes. It panics on a malformed Config: a
// negative Workers, or a Scenario that fails validation against n.
func New(n int, cfg Config) *Network {
	if cfg.Workers < 0 {
		panic(fmt.Sprintf("netsim: negative Workers %d", cfg.Workers))
	}
	if err := cfg.Scenario.Validate(n); err != nil {
		panic(fmt.Sprintf("netsim: invalid scenario: %v", err))
	}
	root := rng.New(cfg.Seed)
	nodeRNGs := make([]*rng.Rand, n)
	for i := range nodeRNGs {
		nodeRNGs[i] = root.Split()
	}
	// The next split fed a retired i.i.d. drop coin. It is still taken
	// and discarded, so that the scenario streams below keep the
	// positions every recorded run was made with.
	root.Split()
	bits := 1
	for v := n - 1; v > 1; v >>= 1 {
		bits++
	}
	return &Network{
		n:          n,
		nodeRNGs:   nodeRNGs,
		lossRNG:    root.Split(),
		delayRNG:   root.Split(),
		dupRNG:     root.Split(),
		reorderRNG: root.Split(),
		scn:        compileScenario(cfg.Scenario, n),
		pending:    make(map[int][]queued),
		down:       make([]bool, n),
		inboxes:    make([][]Message, n),
		perNode:    make([][]queued, n),
		idBits:     bits,
	}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// Stats returns a copy of the traffic counters.
func (nw *Network) Stats() Stats { return nw.stats }

// IDBits returns the width of one identifier on this network: ⌈log₂ n⌉.
func (nw *Network) IDBits() int { return nw.idBits }

// Down reports whether node u is currently crashed by the scenario (as of
// the last executed round).
func (nw *Network) Down(u int) bool { return nw.down[u] }

// Subscribe attaches sub to the network's observation bus: a KindWireRound
// event with the cumulative traffic and impairment counters fires at the
// end of every Round, on the calling goroutine. Subscribing does not
// perturb the wire — publication draws no randomness and runs after all
// routing. The event payload is reused across rounds; copy it if retained.
func (nw *Network) Subscribe(sub stream.Subscriber) { nw.bus.Subscribe(sub) }

// Close retires the network: rounds executed after Close panic. It holds
// no resources, and it is idempotent.
func (nw *Network) Close() { nw.closed = true }

// Round executes one synchronous round: it applies scenario crash
// transitions, then calls each live handler in node order with the copies
// due to it this round, and runs that handler's outgoing messages through
// the impairment pipeline before the next handler acts. Routing only
// enqueues copies for later rounds, so it never changes what a handler of
// this round sees.
func (nw *Network) Round(handlers []Handler) {
	if nw.closed {
		panic("netsim: Round on a closed Network")
	}
	if len(handlers) != nw.n {
		panic(fmt.Sprintf("netsim: %d handlers for %d nodes", len(handlers), nw.n))
	}
	nw.stats.Rounds++
	round := nw.stats.Rounds

	if nw.scn != nil && nw.scn.anyCrash {
		nw.applyCrashTransitions(handlers, round)
	}

	inboxes := nw.buildInboxes(round)
	for u, h := range handlers {
		if nw.down[u] {
			continue
		}
		for _, m := range h.HandleRound(round, inboxes[u], nw.nodeRNGs[u]) {
			if m.From != u {
				panic(fmt.Sprintf("netsim: node %d forged sender %d", u, m.From))
			}
			if m.To < 0 || m.To >= nw.n {
				panic(fmt.Sprintf("netsim: message to invalid node %d", m.To))
			}
			nw.stats.Sent++
			if m.Payload >= 0 {
				nw.stats.IDBits += int64(nw.idBits)
			}
			if nw.scn == nil {
				// Pristine fast path: next-round delivery, no draws.
				nw.stats.Delivered++
				nw.enqueue(round+1, queued{msg: m})
				continue
			}
			nw.routeImpaired(round, m)
		}
	}

	if nw.bus.Active() {
		nw.wireStats = stream.WireStats{
			Rounds:         nw.stats.Rounds,
			Sent:           nw.stats.Sent,
			Dropped:        nw.stats.Dropped,
			Delivered:      nw.stats.Delivered,
			IDBits:         nw.stats.IDBits,
			PartitionDrops: nw.stats.PartitionDrops,
			CrashDrops:     nw.stats.CrashDrops,
			Delayed:        nw.stats.Delayed,
			Duplicated:     nw.stats.Duplicated,
			Reordered:      nw.stats.Reordered,
		}
		nw.bus.EmitWireRound(&nw.wireStats, float64(round))
	}
}

// routeImpaired runs one message through the scenario pipeline. Draw order
// per message is fixed (partition check, loss coin, first copy's
// delay/jitter and reorder draws, duplicate coin, duplicate copy's draws)
// so stream consumption depends only on the message sequence.
func (nw *Network) routeImpaired(round int, m Message) {
	if nw.scn.partitionedAt(round, m.From, m.To) {
		nw.stats.Dropped++
		nw.stats.PartitionDrops++
		return
	}
	imp := nw.scn.impairmentAt(round, m.From, m.To)
	if imp.Loss > 0 && nw.lossRNG.Bernoulli(imp.Loss) {
		nw.stats.Dropped++
		return
	}
	nw.enqueueCopy(round, m, imp)
	if imp.Duplicate > 0 && nw.dupRNG.Bernoulli(imp.Duplicate) {
		nw.stats.Duplicated++
		nw.enqueueCopy(round, m, imp)
	}
}

// enqueueCopy schedules one copy of m: it draws the copy's delay and
// reorder decisions, then buffers it unless the receiver is down at the
// delivery round.
func (nw *Network) enqueueCopy(round int, m Message, imp Impairment) {
	delay := imp.Delay
	if imp.Jitter > 0 {
		delay += nw.delayRNG.Intn(imp.Jitter + 1)
	}
	q := queued{msg: m}
	if imp.Reorder > 0 && nw.reorderRNG.Bernoulli(imp.Reorder) {
		q.reorder = true
		q.key = nw.reorderRNG.Uint64()
	}
	deliverAt := round + 1 + delay
	if nw.scn.crashedAt(m.To, deliverAt) {
		nw.stats.Dropped++
		nw.stats.CrashDrops++
		return
	}
	if delay > 0 {
		nw.stats.Delayed++
	}
	if q.reorder {
		nw.stats.Reordered++
	}
	nw.stats.Delivered++
	nw.enqueue(deliverAt, q)
}

// enqueue appends q to the copies due at round at; a round's first copy
// takes the spare storage, if there is any.
func (nw *Network) enqueue(at int, q queued) {
	batch, ok := nw.pending[at]
	if !ok {
		batch, nw.spare = nw.spare, nil
	}
	nw.pending[at] = append(batch, q)
}

// buildInboxes assembles this round's inboxes from the in-flight queue:
// per receiver, copies are sorted deterministically by (sender, kind) —
// stable over arrival order, exactly the pre-scenario contract — and then
// each reordered copy is reinserted at its random position. The inboxes
// live in the network's reused scratch.
func (nw *Network) buildInboxes(round int) [][]Message {
	batch := nw.pending[round]
	delete(nw.pending, round)
	for _, q := range batch {
		nw.perNode[q.msg.To] = append(nw.perNode[q.msg.To], q)
	}
	if batch != nil {
		nw.spare = batch[:0]
	}
	for u, qs := range nw.perNode {
		inbox, reordered := nw.inboxes[u][:0], nw.reordered[:0]
		for _, q := range qs {
			if q.reorder {
				reordered = append(reordered, q)
				continue
			}
			inbox = append(inbox, q.msg)
		}
		slices.SortStableFunc(inbox, func(a, b Message) int {
			if c := cmp.Compare(a.From, b.From); c != 0 {
				return c
			}
			return cmp.Compare(a.Kind, b.Kind)
		})
		for _, q := range reordered {
			at := int(q.key % uint64(len(inbox)+1))
			inbox = slices.Insert(inbox, at, q.msg)
		}
		nw.inboxes[u], nw.perNode[u], nw.reordered = inbox, qs[:0], reordered
	}
	return nw.inboxes
}

// applyCrashTransitions diffs the scenario's crash schedule against the
// previous round and fires CrashAware hooks, in node order.
func (nw *Network) applyCrashTransitions(handlers []Handler, round int) {
	for u := 0; u < nw.n; u++ {
		downNow := nw.scn.crashedAt(u, round)
		if downNow == nw.down[u] {
			continue
		}
		nw.down[u] = downNow
		ca, ok := handlers[u].(CrashAware)
		if !ok {
			continue
		}
		if downNow {
			ca.Crashed(round)
		} else {
			ca.Restarted(round)
		}
	}
}

// Run executes rounds until stop returns true (checked after every round)
// or maxRounds is reached. It returns the number of rounds executed and
// whether stop fired.
func (nw *Network) Run(handlers []Handler, maxRounds int, stop func(round int) bool) (int, bool) {
	for round := 1; round <= maxRounds; round++ {
		nw.Round(handlers)
		if stop != nil && stop(round) {
			return round, true
		}
	}
	return maxRounds, false
}
