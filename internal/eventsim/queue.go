package eventsim

// This file implements the pending-event queue: a calendar queue (Brown,
// CACM 1988) of per-node next-activation times that pops in (time, node)
// order. The node id is the tie-break, so the pop order — and with it the
// whole activation sequence — is a pure function of the scheduled times,
// never of insertion order, bucket width or memory layout.
//
// Time is cut into buckets of equal width. An event at time t belongs to
// virtual bucket floor(t/width), clamped to maxBucket, and is filed in
// physical bucket (virtual & mask) — a calendar page that events of later
// "years" share. Each node has at most one pending event, so the bucket
// lists are intrusive: when[u] and next[u] are the node's own entry. The
// virtual bucket is monotone in t, so "the lowest non-empty virtual bucket,
// then the (time, node) minimum inside it" is the global minimum: the queue
// pops exactly the order a heap would.
//
// The hot path is the classic discrete-event-simulation one: an activation
// pops the minimum and immediately schedules the same node's next
// activation at a later time. replaceTop unlinks the node from the cursor's
// bucket and files it a gap further on; the next top scans one short list.
// With the width holding about eventsPerBucket due events per bucket both
// are O(1), where a heap pays a sift over log n levels of cold memory.
//
// Invariants:
//   - no scheduled event has a virtual bucket below cur: an insert behind
//     the cursor moves the cursor back;
//   - filing and lookup use the same floating-point expression (bucket), so
//     an event can never be filed in one virtual bucket and looked for in
//     another;
//   - cached, when >= 0, is the queue's minimum and lies in bucket cur; it
//     is dropped when a push or update beats it or anything unlinks it.
//
// Width and bucket count change speed, never order, which is why they are
// derived here and appear nowhere in the determinism contract.

const (
	// eventsPerBucket is the number of due events the derived width puts in
	// one bucket. Measured on event-100k: 2 and 4 equal within noise, 1 about
	// 5 % behind (more empty buckets to step over); see DESIGN.md.
	eventsPerBucket = 2
	// maxBucket clamps the virtual bucket. Everything past the clamp (times
	// beyond 2^62 widths, +Inf) shares one overflow bucket whose in-bucket
	// order is still exact; below it the conversion from float64 is defined.
	maxBucket = 1 << 62

	endOfList   = -1 // next[u]: u is the last entry of its bucket
	unscheduled = -2 // next[u]: u has no pending event (its rate is zero)
)

// pending is a calendar queue of (time, node) activation events, at most
// one per node.
type pending struct {
	when []float64 // node -> its pending event's time
	next []int32   // node -> next node in its physical bucket, or a sentinel
	head []int32   // physical bucket -> first node, endOfList if empty
	mask int64     // len(head) - 1; len(head) is a power of two

	inv   float64 // 1 / bucket width
	tuned float64 // the total rate inv was derived from
	cur   int64   // cursor: the lowest virtual bucket that may hold an event
	n     int     // scheduled events

	cached int32 // the minimum if known, else -1
}

// newPending returns an empty queue for n nodes whose clocks fire totalRate
// times per unit of simulated time in total.
func newPending(n int, totalRate float64) *pending {
	buckets := 1
	for buckets < n {
		buckets <<= 1
	}
	p := &pending{
		when:   make([]float64, n),
		next:   make([]int32, n),
		head:   make([]int32, buckets),
		mask:   int64(buckets - 1),
		cached: -1,
	}
	for i := range p.next {
		p.next[i] = unscheduled
	}
	p.refile(totalRate)
	return p
}

// Len returns the number of scheduled nodes.
func (p *pending) Len() int { return p.n }

// scheduled reports whether node u has a pending event.
func (p *pending) scheduled(u int32) bool { return p.next[u] != unscheduled }

// before orders (t1, u1) before (t2, u2) by time, breaking ties by node id —
// the determinism contract's total order on events.
func before(t1 float64, u1 int32, t2 float64, u2 int32) bool {
	return t1 < t2 || (t1 == t2 && u1 < u2)
}

// bucket returns the virtual bucket of time t (t >= 0: simulated time
// starts at zero). The product is clamped before it is converted.
func (p *pending) bucket(t float64) int64 {
	x := t * p.inv
	if x >= maxBucket {
		return maxBucket
	}
	return int64(x)
}

// tune re-derives the bucket width once the population's total rate has
// left [½, 2]× the value the width was derived from; inside the band it
// does nothing, so a single SetNodeRate costs no O(n) work.
func (p *pending) tune(totalRate float64) {
	if totalRate < p.tuned/2 || totalRate > p.tuned*2 {
		p.refile(totalRate)
	}
}

// refile derives the bucket width from totalRate, files every scheduled
// event again under it and puts the cursor on the earliest one. O(n).
func (p *pending) refile(totalRate float64) {
	p.tuned = totalRate
	// Clamped so that t*inv is never 0*Inf or Inf*0, whatever the rates sum
	// to; an out-of-range width only makes the queue slow.
	p.inv = min(max(totalRate/eventsPerBucket, 1e-300), 1e300)
	for b := range p.head {
		p.head[b] = endOfList
	}
	p.cur = maxBucket // link moves it back to the earliest event
	for u, nx := range p.next {
		if nx != unscheduled {
			p.link(int32(u), p.when[u])
		}
	}
}

// link files node u at time t, moving the cursor back if t lies behind it.
func (p *pending) link(u int32, t float64) {
	v := p.bucket(t)
	if v < p.cur {
		p.cur = v
	}
	b := v & p.mask
	p.when[u] = t
	p.next[u] = p.head[b]
	p.head[b] = u
}

// unlink takes the scheduled node u out of its bucket's list, and out of
// the cache if it was the cached minimum.
func (p *pending) unlink(u int32) {
	if p.cached == u {
		p.cached = -1
	}
	b := p.bucket(p.when[u]) & p.mask
	if p.head[b] == u {
		p.head[b] = p.next[u]
		return
	}
	e := p.head[b]
	for p.next[e] != u {
		e = p.next[e]
	}
	p.next[e] = p.next[u]
}

// uncacheIfBeaten drops the cached minimum if (t, u) orders before it.
func (p *pending) uncacheIfBeaten(u int32, t float64) {
	if p.cached >= 0 && before(t, u, p.when[p.cached], p.cached) {
		p.cached = -1
	}
}

// push schedules node u at time t. u must not already be scheduled.
func (p *pending) push(u int32, t float64) {
	p.uncacheIfBeaten(u, t)
	p.link(u, t)
	p.n++
}

// top returns the earliest scheduled (node, time) without removing it.
// The queue must be non-empty.
func (p *pending) top() (u int32, t float64) {
	if p.cached >= 0 {
		return p.cached, p.when[p.cached]
	}
	for empty := int64(0); ; empty++ {
		if empty > p.mask {
			// A full lap of buckets held nothing due: every event is at
			// least a year ahead. Jump the cursor to the earliest.
			if p.n == 0 {
				panic("eventsim: top of an empty queue")
			}
			p.refile(p.tuned)
			empty = 0
		}
		best := int32(-1)
		for e := p.head[p.cur&p.mask]; e >= 0; e = p.next[e] {
			// Entries of later years share this physical bucket: skip them.
			if et := p.when[e]; p.bucket(et) == p.cur && (best < 0 || before(et, e, t, best)) {
				best, t = e, et
			}
		}
		if best >= 0 {
			p.cached = best
			return best, t
		}
		p.cur++
	}
}

// replaceTop reschedules the top node at time t (its next activation) — the
// fused pop+push of the activation hot path. t must not precede the current
// top time.
func (p *pending) replaceTop(t float64) {
	u, _ := p.top()
	p.unlink(u)
	p.link(u, t)
}

// remove unschedules node u (its rate dropped to zero). No-op if u is not
// scheduled.
func (p *pending) remove(u int32) {
	if !p.scheduled(u) {
		return
	}
	p.unlink(u)
	p.next[u] = unscheduled
	p.n--
}

// update reschedules node u at time t, scheduling it if it was not (a rate
// change from zero). t may be earlier or later than u's previous activation.
func (p *pending) update(u int32, t float64) {
	if !p.scheduled(u) {
		p.push(u, t)
		return
	}
	p.unlink(u)
	p.uncacheIfBeaten(u, t)
	p.link(u, t)
}
