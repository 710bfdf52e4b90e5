// Package protocol realizes the paper's discovery processes as genuine
// distributed message-passing protocols on the netsim substrate, proving
// the claim that both processes run with O(log n)-bit messages and
// constant amortized work per node per round.
//
// A node's knowledge is the IDs it has discovered. The cluster keeps all of
// it in one graph.Directed, where arc u→v means "u knows v": u's out-row is
// u's contact list, in the order u learned it. Knowledge is one-way under
// loss — a lost HELLO or INTRODUCE leaves u knowing v while v does not know
// u — so the graph is directed. netsim calls the handlers one at a time,
// and each reads and writes only its own node's out-row, so one shared
// graph gives exactly the run that n private lists would. The tests in
// this package check that the protocol-level executions converge with
// round counts distributionally consistent with the centralized simulator.
//
//   - Push: node u picks contacts v, w uniformly at random (with
//     replacement) from its list and sends INTRODUCE(w) to v and
//     INTRODUCE(v) to w. Recipients add the payload to their lists.
//     One process round = one message round.
//   - Pull: node u sends PULL-REQ to a uniform contact v; v replies
//     PULL-REPLY(w) with w uniform over v's list; u adds w and sends
//     HELLO to w, which adds u. One process round spans three message
//     rounds, pipelined: a node issues a fresh PULL-REQ every round.
package protocol

import (
	"gossipdisc/internal/graph"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/rng"
)

// NodeHealth tracks a node's scenario churn state: both protocol handlers
// embed it to implement netsim.CrashAware. Knowledge survives an outage
// (a restart keeps durable state); the counters let tests and experiments
// observe the churn a scenario inflicted.
type NodeHealth struct {
	// Down reports whether the node is currently crashed.
	Down bool
	// Crashes counts how many outages the node has suffered.
	Crashes int
	// LastCrash and LastRestart are the rounds of the most recent
	// transitions (0 = never).
	LastCrash, LastRestart int
}

// Crashed implements netsim.CrashAware.
func (h *NodeHealth) Crashed(round int) {
	h.Down = true
	h.Crashes++
	h.LastCrash = round
}

// Restarted implements netsim.CrashAware.
func (h *NodeHealth) Restarted(round int) {
	h.Down = false
	h.LastRestart = round
}

// PushNode is the per-node handler of the push (triangulation) protocol.
type PushNode struct {
	self int
	know *graph.Directed  // the cluster's knowledge; this node touches row self
	out  []netsim.Message // HandleRound's result, reused every round
	NodeHealth
}

// HandleRound implements netsim.Handler.
func (p *PushNode) HandleRound(round int, inbox []netsim.Message, r *rng.Rand) []netsim.Message {
	for _, m := range inbox {
		if m.Kind == netsim.KindIntroduce && m.Payload >= 0 {
			p.know.AddArc(p.self, m.Payload)
		}
	}
	// Two independent uniform picks, with replacement, per the paper.
	v := p.know.RandomOutNeighbor(p.self, r)
	if v < 0 {
		return nil
	}
	w := p.know.RandomOutNeighbor(p.self, r)
	if v == w {
		return nil
	}
	p.out = append(p.out[:0],
		netsim.Message{From: p.self, To: v, Kind: netsim.KindIntroduce, Payload: w},
		netsim.Message{From: p.self, To: w, Kind: netsim.KindIntroduce, Payload: v})
	return p.out
}

// PullNode is the per-node handler of the pull (two-hop walk) protocol.
// Requests, replies and hellos are pipelined: the node issues a new
// PULL-REQ every round while serving whatever arrived. The pipeline keeps
// no pending-handshake state, so a PULL-REQ or PULL-REPLY lost on the wire
// costs exactly that round's walk: the next round's fresh request is the
// retry (pinned by TestPullLossMidHandshake).
type PullNode struct {
	self int
	know *graph.Directed  // the cluster's knowledge; this node touches row self
	out  []netsim.Message // HandleRound's result, reused every round
	NodeHealth
}

// HandleRound implements netsim.Handler.
func (p *PullNode) HandleRound(round int, inbox []netsim.Message, r *rng.Rand) []netsim.Message {
	self := p.self
	out := p.out[:0]
	for _, m := range inbox {
		switch m.Kind {
		case netsim.KindPullRequest:
			// Serve: reply with a uniform contact (possibly the requester
			// itself, matching the process where w == u yields nothing).
			if w := p.know.RandomOutNeighbor(self, r); w >= 0 {
				out = append(out, netsim.Message{
					From: self, To: m.From, Kind: netsim.KindPullReply, Payload: w,
				})
			}
		case netsim.KindPullReply:
			if m.Payload >= 0 && p.know.AddArc(self, m.Payload) {
				out = append(out, netsim.Message{
					From: self, To: m.Payload, Kind: netsim.KindHello, Payload: self,
				})
			}
		case netsim.KindHello:
			p.know.AddArc(self, m.From)
		case netsim.KindIntroduce:
			p.know.AddArc(self, m.Payload)
		}
	}
	// Initiate this round's two-hop walk.
	if v := p.know.RandomOutNeighbor(self, r); v >= 0 {
		out = append(out, netsim.Message{
			From: self, To: v, Kind: netsim.KindPullRequest, Payload: -1,
		})
	}
	p.out = out
	return out
}

// Cluster bundles a network with one handler per node and exposes
// discovery-level queries.
type Cluster struct {
	Net      *netsim.Network
	Handlers []netsim.Handler
	know     *graph.Directed
}

// Protocol selects which discovery protocol a Cluster runs.
type Protocol int

// Available protocols.
const (
	ProtoPush Protocol = iota
	ProtoPull
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == ProtoPush {
		return "push"
	}
	return "pull"
}

// NewCluster builds a cluster whose initial knowledge mirrors g: node u
// knows its neighbors in g, in g's list order, on g's backend.
func NewCluster(g *graph.Undirected, proto Protocol, cfg netsim.Config) *Cluster {
	n := g.N()
	cl := &Cluster{
		Net:      netsim.New(n, cfg),
		Handlers: make([]netsim.Handler, n),
		know:     graph.NewDirectedOn(n, g.Backend()),
	}
	var nbrs []int
	for u := 0; u < n; u++ {
		nbrs = g.Neighbors(u, nbrs[:0])
		for _, v := range nbrs {
			cl.know.AddArc(u, v)
		}
		switch proto {
		case ProtoPush:
			cl.Handlers[u] = &PushNode{self: u, know: cl.know}
		case ProtoPull:
			cl.Handlers[u] = &PullNode{self: u, know: cl.know}
		default:
			panic("protocol: unknown protocol")
		}
	}
	return cl
}

// Knowledge returns the live knowledge graph: arc u→v means node u knows
// node v, and u's out-list is its contacts in the order it learned them.
// Callers must not modify it.
func (cl *Cluster) Knowledge() *graph.Directed { return cl.know }

// Health returns node u's churn state (crash/restart bookkeeping).
func (cl *Cluster) Health(u int) *NodeHealth {
	switch h := cl.Handlers[u].(type) {
	case *PushNode:
		return &h.NodeHealth
	case *PullNode:
		return &h.NodeHealth
	default:
		panic("protocol: handler without health state")
	}
}

// Close closes the network: rounds after Close panic.
func (cl *Cluster) Close() { cl.Net.Close() }

// AllDiscovered reports whether every node knows every other node: the
// knowledge graph holds all n(n−1) arcs.
func (cl *Cluster) AllDiscovered() bool {
	n := cl.know.N()
	return cl.know.M() == n*(n-1)
}

// Run executes rounds until all nodes discovered all others or maxRounds
// elapsed, returning the rounds used and whether discovery completed. A
// start on which everyone already knows everyone takes no round.
func (cl *Cluster) Run(maxRounds int) (int, bool) {
	if cl.AllDiscovered() {
		return 0, true
	}
	return cl.Net.Run(cl.Handlers, maxRounds, func(round int) bool {
		return cl.AllDiscovered()
	})
}
