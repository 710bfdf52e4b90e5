// Package baseline implements the prior resource-discovery algorithms the
// paper positions itself against, with explicit bandwidth accounting.
//
// Name Dropper (Harchol-Balter, Leighton, Lewin; PODC 1999) completes in
// O(log² n) rounds but ships a node's entire neighbor list — Θ(n log n)
// bits — in a single message. Random Pointer Jump (also analyzed in [16])
// pulls a random neighbor's entire list. The gossip processes of this paper
// trade rounds for bandwidth: O(n log² n) rounds at O(log n) bits per
// message. Experiment E11 reproduces that trade-off table; the IDMeter here
// supplies the bits side.
package baseline

import (
	"sync/atomic"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/rng"
)

// IDMeter accumulates the number of node identifiers transmitted. One ID
// costs ⌈log₂ n⌉ bits on the wire; multiplying is left to the reporting
// layer so the meter stays integral. The counters are atomic because a
// single meter is typically shared across parallel trials.
type IDMeter struct {
	ids      atomic.Int64
	messages atomic.Int64
}

// Add records one message carrying ids identifiers.
func (m *IDMeter) Add(ids int) {
	if m == nil {
		return
	}
	m.ids.Add(int64(ids))
	m.messages.Add(1)
}

// IDs returns the total number of identifiers sent so far.
func (m *IDMeter) IDs() int64 { return m.ids.Load() }

// Messages returns the number of messages sent (each carries one or more
// IDs plus an O(1) header).
func (m *IDMeter) Messages() int64 { return m.messages.Load() }

// NameDropper is the push-style discovery algorithm of [16]: every round,
// every node u chooses a random neighbor v and sends v *all* the addresses
// u knows (its full neighbor list plus its own). v becomes adjacent to all
// of them. Completes in O(log² n) rounds; messages carry Θ(d(u)) IDs.
type NameDropper struct {
	// Meter, if non-nil, accumulates transmitted IDs.
	Meter *IDMeter
}

// Name implements core.Process.
func (NameDropper) Name() string { return "name-dropper" }

// Act implements core.Process.
func (nd NameDropper) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	v := g.RandomNeighbor(u, r)
	if v < 0 {
		return
	}
	d := g.Degree(u)
	nd.Meter.Add(d + 1) // the whole list plus u's own address
	for i := 0; i < d; i++ {
		w := g.Neighbor(u, i)
		if w != v {
			propose(v, w)
		}
	}
	propose(v, u) // v learns u (usually already adjacent)
}

// RandomPointerJump is the pull-style counterpart analyzed in [16]: every
// round, every node u contacts a random neighbor v and learns *all* of v's
// neighbors. The paper's Theorem 15 discussion notes the Ω(n) lower bound
// for this algorithm on directed graphs.
type RandomPointerJump struct {
	Meter *IDMeter
}

// Name implements core.Process.
func (RandomPointerJump) Name() string { return "pointer-jump" }

// Act implements core.Process.
func (pj RandomPointerJump) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	v := g.RandomNeighbor(u, r)
	if v < 0 {
		return
	}
	d := g.Degree(v)
	pj.Meter.Add(d) // v's whole list flows back to u
	for i := 0; i < d; i++ {
		w := g.Neighbor(v, i)
		if w != u {
			propose(u, w)
		}
	}
}

// MeteredGossip wraps one of the paper's O(log n)-bit processes purely to
// count IDs: push transmits 2 IDs per acting node per round (one to each
// introduced endpoint); pull transmits 3 (request identity, pulled contact,
// hello to the new contact).
type MeteredGossip struct {
	Inner interface {
		Name() string
		Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int))
	}
	IDsPerAct int
	Meter     *IDMeter
}

// Name implements core.Process.
func (m MeteredGossip) Name() string { return m.Inner.Name() + "+metered" }

// Act implements core.Process.
func (m MeteredGossip) Act(g *graph.Undirected, u int, r *rng.Rand, propose func(a, b int)) {
	if g.Degree(u) > 0 {
		m.Meter.Add(m.IDsPerAct)
	}
	m.Inner.Act(g, u, r, propose)
}
