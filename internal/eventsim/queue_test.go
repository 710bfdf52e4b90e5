package eventsim

import (
	"math"
	"sort"
	"testing"

	"gossipdisc/internal/rng"
)

// oracleEvent mirrors one queue entry in the sorted-slice oracle.
type oracleEvent struct {
	t float64
	u int32
}

// oracle is the obviously-correct reference the fuzzer and property tests
// compare the calendar queue against: a sorted slice re-sorted after every
// mutation, ordered by (time, node).
type oracle struct {
	events []oracleEvent
}

func (o *oracle) sortAll() {
	sort.Slice(o.events, func(i, j int) bool {
		a, b := o.events[i], o.events[j]
		return a.t < b.t || (a.t == b.t && a.u < b.u)
	})
}

func (o *oracle) push(u int32, t float64) {
	o.events = append(o.events, oracleEvent{t, u})
	o.sortAll()
}

func (o *oracle) top() (int32, float64) { return o.events[0].u, o.events[0].t }

func (o *oracle) replaceTop(t float64) {
	o.events[0].t = t
	o.sortAll()
}

func (o *oracle) remove(u int32) {
	for i, e := range o.events {
		if e.u == u {
			o.events = append(o.events[:i], o.events[i+1:]...)
			return
		}
	}
}

func (o *oracle) update(u int32, t float64) {
	o.remove(u)
	o.push(u, t)
}

func (o *oracle) scheduled(u int32) bool {
	for _, e := range o.events {
		if e.u == u {
			return true
		}
	}
	return false
}

// drainCheck pops both structures empty and fails on the first divergence.
func drainCheck(t *testing.T, p *pending, o *oracle) {
	t.Helper()
	for len(o.events) > 0 {
		if p.Len() == 0 {
			t.Fatalf("queue empty with %d oracle events left", len(o.events))
		}
		hu, ht := p.top()
		ou, ot := o.top()
		if hu != ou || ht != ot {
			t.Fatalf("pop order diverged: queue (%d, %v) vs oracle (%d, %v)", hu, ht, ou, ot)
		}
		p.remove(hu)
		o.remove(ou)
	}
	if p.Len() != 0 {
		t.Fatalf("oracle empty with %d queue events left", p.Len())
	}
}

// lockstep applies every operation to a queue and to the oracle and compares
// their sizes and tops after each one.
type lockstep struct {
	t *testing.T
	p *pending
	o *oracle
}

func newLockstep(t *testing.T, n int, totalRate float64) *lockstep {
	return &lockstep{t: t, p: newPending(n, totalRate), o: &oracle{}}
}

func (l *lockstep) check() {
	l.t.Helper()
	if l.p.Len() != len(l.o.events) {
		l.t.Fatalf("size diverged: queue %d vs oracle %d", l.p.Len(), len(l.o.events))
	}
	if l.p.Len() == 0 {
		return
	}
	hu, ht := l.p.top()
	ou, ot := l.o.top()
	if hu != ou || ht != ot {
		l.t.Fatalf("top diverged: queue (%d, %v) vs oracle (%d, %v)", hu, ht, ou, ot)
	}
}

func (l *lockstep) push(u int32, t float64) {
	l.t.Helper()
	l.p.push(u, t)
	l.o.push(u, t)
	l.check()
}

func (l *lockstep) update(u int32, t float64) {
	l.t.Helper()
	l.p.update(u, t)
	l.o.update(u, t)
	l.check()
}

func (l *lockstep) remove(u int32) {
	l.t.Helper()
	l.p.remove(u)
	l.o.remove(u)
	l.check()
}

func (l *lockstep) replaceTop(t float64) {
	l.t.Helper()
	l.p.replaceTop(t)
	l.o.replaceTop(t)
	l.check()
}

// refile changes the queue's bucket width; the oracle has none.
func (l *lockstep) refile(totalRate float64) {
	l.t.Helper()
	l.p.refile(totalRate)
	l.check()
}

func (l *lockstep) drain() {
	l.t.Helper()
	drainCheck(l.t, l.p, l.o)
}

func TestPendingTieBreak(t *testing.T) {
	// Equal times must pop in node order regardless of insertion order.
	p := newPending(5, 5)
	o := &oracle{}
	for _, u := range []int32{3, 0, 4, 1, 2} {
		p.push(u, 1.0)
		o.push(u, 1.0)
	}
	for want := int32(0); want < 5; want++ {
		u, tt := p.top()
		if u != want || tt != 1.0 {
			t.Fatalf("tie-break pop %d: got node %d at %v, want node %d at 1", want, u, tt, want)
		}
		p.remove(u)
	}
}

func TestPendingReplaceTopIsPopPush(t *testing.T) {
	p := newPending(8, 8)
	o := &oracle{}
	r := rng.New(7)
	for u := int32(0); u < 8; u++ {
		tt := r.Float64()
		p.push(u, tt)
		o.push(u, tt)
	}
	for i := 0; i < 200; i++ {
		_, tt := p.top()
		next := tt + r.Exp()
		p.replaceTop(next)
		o.replaceTop(next)
		hu, ht := p.top()
		ou, ot := o.top()
		if hu != ou || ht != ot {
			t.Fatalf("step %d: queue top (%d, %v) vs oracle (%d, %v)", i, hu, ht, ou, ot)
		}
	}
	drainCheck(t, p, o)
}

// TestPendingCalendar walks the queue through the places where a calendar
// differs from a heap — the year structure, the cursor, the cached top, the
// overflow bucket, a width change with events pending — against the oracle.
// Eight buckets of width 1/8 make one lap of the calendar one time unit.
func TestPendingCalendar(t *testing.T) {
	t.Run("later years share a bucket and are skipped", func(t *testing.T) {
		l := newLockstep(t, 8, 16)
		// Virtual buckets 0, 8, 16 and 42*8 all map to physical bucket 0.
		l.push(0, 42.05)
		l.push(1, 2.05)
		l.push(2, 0.05)
		l.push(3, 1.05)
		l.push(4, 0.3)
		l.replaceTop(0.06) // stays first
		l.replaceTop(3.05) // a fourth year into the same bucket
		l.drain()
	})

	t.Run("an empty lap jumps to the earliest event", func(t *testing.T) {
		// Three clocks at rate 1e-6 in a queue still tuned for 4096 nodes at
		// rate 1: every event lies ~10^5 laps ahead of the one before.
		l := newLockstep(t, 4096, 4096)
		r := rng.New(3)
		for _, u := range []int32{7, 2048, 4095} {
			l.push(u, r.Exp()/1e-6)
		}
		for i := 0; i < 64; i++ {
			_, now := l.p.top()
			l.replaceTop(now + r.Exp()/1e-6)
		}
		l.drain()
	})

	t.Run("an insert behind the cursor moves it back", func(t *testing.T) {
		l := newLockstep(t, 8, 16)
		l.push(0, 5.5)
		l.push(1, 6.5)
		l.push(2, 7.5) // check() has put the cursor on 5.5
		l.update(2, 1.25)
		l.push(3, 0.5)
		l.drain()
		l.push(4, 0.75) // the drain left the cursor on 6.5
		l.push(5, 0.25)
		l.drain()
	})

	t.Run("the cached top is dropped when hit or beaten", func(t *testing.T) {
		l := newLockstep(t, 8, 16)
		for u := int32(0); u < 6; u++ {
			l.push(u, 2+float64(u)/16)
		}
		l.remove(0)       // remove the cached top
		l.update(1, 2.5)  // move the cached top later
		l.update(5, 2.01) // another node moves below the cached top
		l.update(4, 2.01) // equal time, smaller id: beats it
		l.update(3, 2.01) // and again
		l.update(2, 2.01) // equal time, smaller id than the top once more
		l.update(5, 9)    // equal time, larger id: moving it away changes nothing
		l.push(0, 2.01)   // a push that beats the cached top on the id alone
		l.push(7, 2.01)   // and one that does not
		l.drain()
	})

	t.Run("huge and infinite times share the overflow bucket in order", func(t *testing.T) {
		l := newLockstep(t, 8, 16)
		l.push(0, math.Inf(1))
		l.push(1, 1e300)
		l.push(2, math.Inf(1))
		l.push(3, math.MaxFloat64)
		l.push(4, 1)
		l.push(5, 1.5e300)
		l.replaceTop(math.Inf(1)) // node 4 joins the infinite tie
		l.update(2, 3)
		l.drain()
	})

	t.Run("a width change keeps the order of pending events", func(t *testing.T) {
		l := newLockstep(t, 32, 32)
		r := rng.New(5)
		for u := int32(0); u < 32; u++ {
			l.push(u, 4*r.Float64())
		}
		for _, total := range []float64{32e3, 32e-6, 0, math.Inf(1), 32} {
			l.refile(total)
			for i := 0; i < 8; i++ {
				_, now := l.p.top()
				l.replaceTop(now + r.Exp())
			}
		}
		l.p.tune(40) // inside [½, 2]× of 32: must not re-derive
		if l.p.tuned != 32 {
			t.Fatalf("tune inside the band re-derived the width (tuned %v)", l.p.tuned)
		}
		l.p.tune(65)
		if l.p.tuned != 65 {
			t.Fatalf("tune outside the band kept the width (tuned %v)", l.p.tuned)
		}
		l.check()
		l.drain()
	})
}

// FuzzPendingQueue drives the calendar queue and the sorted-slice oracle
// through the same operation sequence — pushes, activation pops
// (replaceTop), rate-change reschedules (update), rate-to-zero removals and
// bucket-width changes — and requires identical tops throughout and an
// identical drain order at the end. This is the queue-side half of the
// determinism contract: (time, node) is a total order, and every mutation
// preserves it, whatever the width.
func FuzzPendingQueue(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(2), []byte{10, 200, 30, 40, 50, 60})
	f.Add(uint64(42), []byte{255, 0, 255, 0, 128, 7, 9, 11, 13})
	f.Add(uint64(7), []byte{0, 4, 8, 0xEF, 1, 1, 0xE0, 1, 2, 0xE8, 1, 3, 1})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		const n = 16
		r := rng.New(seed)
		p := newPending(n, n)
		o := &oracle{}
		now := 0.0
		for _, op := range ops {
			u := int32(op) % n
			switch {
			case op>>4 == 0xE: // re-tune: total rate 2^-32 … 2^28 with events pending
				p.refile(math.Ldexp(1, 4*int(u)-32))
			case op%4 == 0: // schedule u if unscheduled
				if !p.scheduled(u) {
					tt := now + r.Exp()
					p.push(u, tt)
					o.push(u, tt)
				}
			case op%4 == 1: // activation: pop min, schedule its next firing
				if p.Len() > 0 {
					hu, ht := p.top()
					ou, ot := o.top()
					if hu != ou || ht != ot {
						t.Fatalf("top diverged: queue (%d, %v) vs oracle (%d, %v)", hu, ht, ou, ot)
					}
					now = ht
					next := now + r.Exp()
					p.replaceTop(next)
					o.replaceTop(next)
				}
			case op%4 == 2: // rate change mid-run: reschedule u from now
				tt := now + r.Exp()
				p.update(u, tt)
				o.update(u, tt)
			case op%4 == 3: // rate dropped to zero: unschedule u
				p.remove(u)
				o.remove(u)
			}
			if p.Len() != len(o.events) {
				t.Fatalf("size diverged: queue %d vs oracle %d", p.Len(), len(o.events))
			}
			if p.scheduled(u) != o.scheduled(u) {
				t.Fatalf("scheduled(%d) diverged: queue %v vs oracle %v", u, p.scheduled(u), o.scheduled(u))
			}
			if p.Len() > 0 {
				hu, ht := p.top()
				ou, ot := o.top()
				if hu != ou || ht != ot {
					t.Fatalf("top diverged after op %d: queue (%d, %v) vs oracle (%d, %v)", op, hu, ht, ou, ot)
				}
				if math.IsNaN(ht) {
					t.Fatalf("NaN time reached the queue")
				}
			}
		}
		drainCheck(t, p, o)
	})
}
