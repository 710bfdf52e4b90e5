package eventsim

import (
	"math"

	"gossipdisc/internal/rng"
)

// This file implements the jump chain that samples the event schedule. The
// superposition of independent Poisson clocks of rates λ_u is one Poisson
// clock of rate Λ = Σλ_u whose every tick lands on node u with probability
// λ_u/Λ, independently of the past. The chain samples it by composition and
// rejection over rate groups: every node with a positive rate is filed in
// the group of its binary exponent, group k holding the rates in
// (2^(k-1), 2^k], and candidates tick at Λ* = Σ_k |group k|·2^k. A
// candidate picks a group by weight, a member uniformly, and is kept with
// probability rate/2^k; a thinned candidate lets time pass and nobody acts.
// Thinning a Poisson process keeps a Poisson process, so every node fires at
// exactly its own rate, and since rate/2^k > 1/2, Λ ≤ Λ* < 2Λ.
//
// No node has a pending event or a stream of its own: mutating a rate moves
// one node between two groups in O(1), and a step boundary drops the
// candidate that crossed it (memorylessness makes the next gap fresh).

// rateGroup holds the nodes whose rate lies in (scale/2, scale].
type rateGroup struct {
	exp     int     // binary exponent k: scale = 2^k
	scale   float64 // 2^k, the group's thinning bound
	below   int     // members filed at a rate below scale: zero means no candidate is thinned
	members []int32
}

// chain is the sampler's state: the non-empty groups in ascending exponent
// order and every node's place in them.
type chain struct {
	groups []rateGroup
	exp    []int16 // node -> k<<1 of its group 2^k, | 1 if filed below 2^k
	pos    []int32 // node -> index in its group's members, -1 when parked
	total  float64 // Λ* = Σ |members|·scale, re-summed from the groups
}

// newChain files every node of the map, in node order, by its rate.
func newChain(rates *RateMap) *chain {
	n := rates.N()
	c := &chain{exp: make([]int16, n), pos: make([]int32, n)}
	for u := range c.pos {
		c.pos[u] = -1
		c.file(u, rates.Rate(u))
	}
	c.retotal()
	return c
}

// file moves node u into the group of rate, or parks it at rate 0. It
// leaves total stale: callers re-sum once after a batch of moves.
func (c *chain) file(u int, rate float64) {
	if c.pos[u] >= 0 {
		c.unfile(u)
	}
	if rate <= 0 {
		return
	}
	frac, k := math.Frexp(rate) // rate = frac·2^k, frac in [½, 1)
	if frac == 0.5 {
		k-- // an exact power of two tops its group
	}
	i := 0
	for i < len(c.groups) && c.groups[i].exp < k {
		i++
	}
	if i == len(c.groups) || c.groups[i].exp != k {
		c.groups = append(c.groups, rateGroup{})
		copy(c.groups[i+1:], c.groups[i:])
		c.groups[i] = rateGroup{exp: k, scale: math.Ldexp(1, k)}
	}
	g := &c.groups[i]
	c.exp[u] = int16(k << 1)
	if frac != 0.5 {
		c.exp[u] |= 1
		g.below++
	}
	c.pos[u] = int32(len(g.members))
	g.members = append(g.members, int32(u))
}

// unfile swap-removes the filed node u from its group, dropping the group
// when it empties.
func (c *chain) unfile(u int) {
	i := 0
	for c.groups[i].exp != int(c.exp[u]>>1) {
		i++
	}
	g := &c.groups[i]
	g.below -= int(c.exp[u] & 1)
	last := g.members[len(g.members)-1]
	g.members[c.pos[u]] = last
	c.pos[last] = c.pos[u]
	g.members = g.members[:len(g.members)-1]
	c.pos[u] = -1
	if len(g.members) == 0 {
		c.groups = append(c.groups[:i], c.groups[i+1:]...)
	}
}

// retotal re-sums Λ* from the group sizes in ascending exponent order, so
// it is a function of the groups alone and never drifts.
func (c *chain) retotal() {
	c.total = 0
	for i := range c.groups {
		c.total += float64(len(c.groups[i].members)) * c.groups[i].scale
	}
}

// candidate draws one candidate's landing, after its gap, and returns the
// node that fires or -1 if it was thinned. The clock stream draws the group
// choice and the thinning variate, the act stream the member pick; neither
// draws when its outcome is certain. Λ* must be positive.
func (c *chain) candidate(clock, act *rng.Rand, rates []float64) int {
	g := &c.groups[0]
	if len(c.groups) > 1 {
		x := clock.Float64() * c.total
		for i := range c.groups {
			g = &c.groups[i]
			if x -= float64(len(g.members)) * g.scale; x < 0 {
				break
			}
		}
	}
	u := g.members[act.Intn(len(g.members))]
	// A group of members filed at its scale keeps every candidate without
	// reading a rate. Otherwise a rate at or above the scale keeps the
	// candidate outright, so acceptance stays ≤ 1 even for a rate mutated
	// behind the session's back.
	if g.below != 0 && rates[u] < g.scale && clock.Float64() >= rates[u]/g.scale {
		return -1
	}
	return int(u)
}
