// Package simtest is the runtime conformance table's half that every runtime
// shares: a small Runtime interface over one session, one delta Fingerprint,
// one Invariants subscriber, and each contract property written once. A
// runtime package's tests hold the other half, a factory table of rows, and
// run the properties on them. It imports only graph and stream, so the
// internal tests of sim and eventsim can import it without a cycle.
package simtest

import (
	"runtime"
	"testing"

	"gossipdisc/internal/graph"
	"gossipdisc/internal/stream"
)

// Runtime is one session under test.
type Runtime interface {
	// Step runs one round (one unit of time on the event runtime) and
	// returns its delta as a bus event, or nil once the run is over; ok
	// reports whether the session can go on.
	Step() (e *stream.Event, ok bool)
	// Run drives the session to its end and returns its comparable result.
	Run() any
	// Remaining is the session's own count of the work left:
	// EdgesRemaining, or ClosureArcsRemaining on a directed session.
	Remaining() int
	// RunUntil is the session's own RunUntil: it runs until pred holds or
	// the run is over.
	RunUntil(pred func() bool)
	// Stats, Round and Converged are the session's own accessors: the
	// result so far, the whole rounds run, and whether the run converged.
	Stats() any
	Round() int
	Converged() bool
	Subscribe(stream.Subscriber)
	Close()
}

// Row is one runtime configuration of a factory table. New builds a fresh
// session, on a fresh graph and generator, every time it is called.
type Row struct {
	Name string
	New  func() Runtime
	// Procs, if positive, is the GOMAXPROCS a run of the row sees.
	Procs int
}

// Axis is one row per value of a config axis, for Identical.
func Axis[V any](vs []V, row func(V) Row) []Row {
	rows := make([]Row, len(vs))
	for i, v := range vs {
		rows[i] = row(v)
	}
	return rows
}

// session is the surface every session shares; D is its delta type.
type session[D, R any] interface {
	Step() (*D, bool)
	Run() R
	Stats() R
	Round() int
	Converged() bool
	Subscribe(stream.Subscriber)
}

// adapter is a session seen as a Runtime. event wraps a delta in the bus
// event Step hands back, which is reused so that Step allocates nothing.
type adapter[D, R any] struct {
	session[D, R]
	event     func(*D) stream.Event
	remaining func() int
	until     func(pred func() bool)
	ev        stream.Event
}

func (a *adapter[D, R]) Step() (*stream.Event, bool) {
	d, ok := a.session.Step()
	if d == nil {
		return nil, ok
	}
	a.ev = a.event(d)
	return &a.ev, ok
}

func (a *adapter[D, R]) Run() any                  { return a.session.Run() }
func (a *adapter[D, R]) Stats() any                { return a.session.Stats() }
func (a *adapter[D, R]) Remaining() int            { return a.remaining() }
func (a *adapter[D, R]) RunUntil(pred func() bool) { a.until(pred) }

// Session returns the session an Undirected or Directed Runtime adapts.
func Session(rt Runtime) any { return rt.(interface{ base() any }).base() }

func (a *adapter[D, R]) base() any { return a.session }

// Close closes the session if its runtime has a Close.
func (a *adapter[D, R]) Close() {
	if c, ok := a.session.(interface{ Close() }); ok {
		c.Close()
	}
}

// Undirected adapts an undirected session to a Runtime.
func Undirected[R any](s interface {
	session[stream.RoundDelta, R]
	RunUntil(func(*graph.Undirected) bool) R
	EdgesRemaining() int
	Graph() *graph.Undirected
}) Runtime {
	until := func(pred func() bool) { s.RunUntil(func(*graph.Undirected) bool { return pred() }) }
	return &adapter[stream.RoundDelta, R]{session: s, remaining: s.EdgesRemaining, until: until, event: func(d *stream.RoundDelta) stream.Event {
		return stream.Event{Kind: stream.KindRound, Time: float64(d.Round), Graph: s.Graph(), Delta: d}
	}}
}

// Directed adapts a directed session to a Runtime.
func Directed[R any](s interface {
	session[stream.DirectedRoundDelta, R]
	RunUntil(func(*graph.Directed) bool) R
	ClosureArcsRemaining() int
	Graph() *graph.Directed
}) Runtime {
	until := func(pred func() bool) { s.RunUntil(func(*graph.Directed) bool { return pred() }) }
	return &adapter[stream.DirectedRoundDelta, R]{session: s, remaining: s.ClosureArcsRemaining, until: until, event: func(d *stream.DirectedRoundDelta) stream.Event {
		return stream.Event{Kind: stream.KindDirectedRound, Time: float64(d.Round), Digraph: s.Graph(), DirectedDelta: d}
	}}
}

// Fingerprint folds every round delta it is sent, of either kind, into a
// 64-bit FNV-1a hash of its data fields in stream order. The fold is the
// one every delta golden in this module was recorded with; the word values
// are hashed as uint64, so a fingerprint is the same on 32- and 64-bit
// platforms.
type Fingerprint struct{ Sum uint64 }

// NewFingerprint returns a fingerprint at the FNV-1a offset basis.
func NewFingerprint() *Fingerprint { return &Fingerprint{Sum: 14695981039346656037} }

// Word folds one 64-bit word.
func (f *Fingerprint) Word(v uint64) {
	f.Sum ^= v
	f.Sum *= 1099511628211
}

// Ints folds each value as one word.
func (f *Fingerprint) Ints(vs ...int) {
	for _, v := range vs {
		f.Word(uint64(v))
	}
}

// OnEvent folds a round delta; other events leave the hash alone. The
// func-valued complement views cannot be hashed; Invariants checks them.
func (f *Fingerprint) OnEvent(e *stream.Event) {
	switch e.Kind {
	case stream.KindRound:
		d := e.Delta
		f.Ints(d.Round, len(d.NewEdges), d.EdgesRemaining, d.Members, d.MemberEdges)
		for _, x := range d.NewEdges {
			f.Ints(x.U, x.V)
		}
		for i, u := range d.Touched {
			f.Ints(int(u), int(d.DegreeInc[u]), i)
		}
		for _, u := range d.Joined {
			f.Ints(int(u))
		}
		for _, u := range d.Left {
			f.Ints(int(u))
		}
	case stream.KindDirectedRound:
		d := e.DirectedDelta
		f.Ints(d.Round, len(d.NewArcs), d.ClosureArcsRemaining)
		for _, a := range d.NewArcs {
			f.Ints(a.U, a.V)
		}
		for i, u := range d.OutTouched {
			f.Ints(int(u), int(d.OutDegreeInc[u]), i)
		}
		for i, u := range d.InTouched {
			f.Ints(int(u), int(d.InDegreeInc[u]), i)
		}
	}
}

// Invariants checks every round delta it is sent against the delta
// contract and fails the test, naming the row and the round, at the first
// breach. Make it before the session's first step.
type Invariants struct {
	t         testing.TB
	name      string
	rt        Runtime
	round     int
	remaining int // the last count seen; -1 after a join
}

// NewInvariants checks the deltas of rt, a runtime of the row called name.
func NewInvariants(t testing.TB, name string, rt Runtime) *Invariants {
	return &Invariants{t: t, name: name, rt: rt, remaining: rt.Remaining()}
}

func (v *Invariants) fail(round int, format string, args ...any) {
	v.t.Helper()
	v.t.Fatalf("%s round %d: "+format, append([]any{v.name, round}, args...)...)
}

// OnEvent checks one round delta. Per delta: Round advances by one;
// NewEdges are normalized (arcs are not loops); the increments sum to
// 2·|NewEdges| (|NewArcs| per side) and Touched lists exactly the nonzero
// ones, each once; the remaining count is the session's own, and it falls
// by exactly the new edges (arcs) — on a membership row it only never
// rises, except over a delta that reports a join; the complement view
// agrees with the graph; EdgeTimes is nil or one non-decreasing time per
// edge.
func (v *Invariants) OnEvent(e *stream.Event) {
	v.t.Helper()
	var round, remaining, added int
	members := false
	switch e.Kind {
	case stream.KindRound:
		d := e.Delta
		round, remaining, added = d.Round, d.EdgesRemaining, len(d.NewEdges)
		members = d.Members > 0 || len(d.Left) > 0
		for _, x := range d.NewEdges {
			if x.U >= x.V {
				v.fail(round, "edge %v not normalized", x)
			}
		}
		v.increments(round, "Touched", d.Touched, d.DegreeInc, 2*len(d.NewEdges))
		for _, u := range d.Touched {
			if got, want := d.MissingDegree(int(u)), e.Graph.MissingDegree(int(u)); got != want {
				v.fail(round, "MissingDegree(%d) %d, graph %d", u, got, want)
			}
		}
		if d.EdgeTimes != nil && len(d.EdgeTimes) != len(d.NewEdges) {
			v.fail(round, "%d edge times for %d edges", len(d.EdgeTimes), len(d.NewEdges))
		}
		for i := 1; i < len(d.EdgeTimes); i++ {
			if d.EdgeTimes[i] < d.EdgeTimes[i-1] {
				v.fail(round, "edge times %v decrease", d.EdgeTimes)
			}
		}
		if len(d.Joined) > 0 {
			v.remaining = -1
		}
	case stream.KindDirectedRound:
		d := e.DirectedDelta
		round, remaining, added = d.Round, d.ClosureArcsRemaining, len(d.NewArcs)
		for _, a := range d.NewArcs {
			if a.U == a.V {
				v.fail(round, "loop arc %v", a)
			}
		}
		v.increments(round, "OutTouched", d.OutTouched, d.OutDegreeInc, len(d.NewArcs))
		v.increments(round, "InTouched", d.InTouched, d.InDegreeInc, len(d.NewArcs))
	default:
		return
	}
	if round != v.round+1 {
		v.fail(round, "follows round %d", v.round)
	}
	if own := v.rt.Remaining(); remaining != own {
		v.fail(round, "delta counts %d remaining, session %d", remaining, own)
	}
	switch {
	case v.remaining < 0:
	case members && remaining > v.remaining:
		v.fail(round, "remaining rose from %d to %d", v.remaining, remaining)
	case !members && v.remaining-remaining != added:
		v.fail(round, "remaining fell from %d to %d over %d new edges", v.remaining, remaining, added)
	}
	v.round, v.remaining = round, remaining
}

// increments checks that touched lists each nonzero entry of inc once and
// that the entries sum to want.
func (v *Invariants) increments(round int, field string, touched, inc []int32, want int) {
	v.t.Helper()
	sum, nonzero := 0, 0
	for _, x := range inc {
		if x != 0 {
			sum += int(x)
			nonzero++
		}
	}
	if sum != want || nonzero != len(touched) {
		v.fail(round, "increments sum to %d over %d nodes, want %d over the %d in %s", sum, nonzero, want, len(touched), field)
	}
	for _, u := range touched {
		if inc[u] == 0 {
			v.fail(round, "%s lists node %d with no increment", field, u)
		}
	}
}

// Outcome is one run's comparable result and delta fingerprint.
type Outcome struct {
	Result any
	Hash   uint64
}

// Run drives a fresh runtime of row to its end with a Fingerprint, an
// Invariants and subs subscribed, and returns its Outcome.
func Run(t testing.TB, row Row, subs ...stream.Subscriber) Outcome {
	t.Helper()
	if row.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(row.Procs))
	}
	rt := row.New()
	defer rt.Close()
	fp := NewFingerprint()
	rt.Subscribe(fp)
	rt.Subscribe(NewInvariants(t, row.Name, rt))
	for _, sub := range subs {
		rt.Subscribe(sub)
	}
	return Outcome{rt.Run(), fp.Sum}
}

// Identical requires every row to reproduce the first row's Outcome: the
// property of a config axis (backends, GOMAXPROCS, a replay
// of the same row) that must not reach the run, and of a uniform
// Population against the bare process it wraps. It returns that Outcome.
func Identical(t testing.TB, rows ...Row) Outcome {
	t.Helper()
	want := Run(t, rows[0])
	for _, row := range rows[1:] {
		if got := Run(t, row); got != want {
			t.Fatalf("%s diverged from %s:\n got  %+v %#x\n want %+v %#x",
				row.Name, rows[0].Name, got.Result, got.Hash, want.Result, want.Hash)
		}
	}
	return want
}

// StepRun requires a session driven in pieces — three Steps, RunUntil
// until holds (nil: half the work left), two Steps, Run — to end with the
// Outcome of a fresh Run, which it returns, and Stats the result. RunUntil
// stops where until first holds, at Round the last delta's; after Run,
// Round is that or one less (a final partial round), Converged holds
// exactly when no work is left, and Step returns (nil, false).
func StepRun(t *testing.T, row Row, until func(Runtime) bool) Outcome {
	t.Helper()
	want := Run(t, row)
	rt := row.New()
	defer rt.Close()
	fp, inv := NewFingerprint(), NewInvariants(t, row.Name, rt)
	rt.Subscribe(fp)
	rt.Subscribe(inv)
	for i := 0; i < 3; i++ {
		rt.Step()
	}
	if half := rt.Remaining() / 2; until == nil {
		until = func(rt Runtime) bool { return rt.Remaining() <= half }
	}
	rt.RunUntil(func() bool { return until(rt) })
	if !until(rt) || rt.Round() != inv.round {
		t.Fatalf("%s: RunUntil stopped at round %d (last delta %d) short of its predicate", row.Name, rt.Round(), inv.round)
	}
	rt.Step()
	rt.Step()
	got := Outcome{rt.Run(), fp.Sum}
	if got != want || rt.Stats() != got.Result {
		t.Fatalf("%s: driven in pieces %+v %#x (Stats %+v), Run %+v %#x", row.Name, got.Result, got.Hash, rt.Stats(), want.Result, want.Hash)
	}
	if r := rt.Round(); r != inv.round && r != inv.round-1 || rt.Converged() != (rt.Remaining() == 0) {
		t.Fatalf("%s: after Run, Round %d of %d deltas, Converged %v with %d left", row.Name, r, inv.round, rt.Converged(), rt.Remaining())
	}
	if e, ok := rt.Step(); e != nil || ok {
		t.Fatalf("%s: Step after the end returned (%v, %v)", row.Name, e, ok)
	}
	return want
}

// BusEquivalence requires the deltas Step hands back to a session with
// nothing subscribed to be the stream one subscriber and N subscribers see
// (N counts the Fingerprint, the Invariants, extra() if extra is not nil
// and a no-op), with one result; a run with none subscribed ends at that
// result too.
func BusEquivalence(t *testing.T, row Row, extra func() stream.Subscriber) {
	t.Helper()
	rt := row.New()
	fp, inv := NewFingerprint(), NewInvariants(t, row.Name, rt)
	for e, _ := rt.Step(); e != nil; e, _ = rt.Step() {
		fp.OnEvent(e)
		inv.OnEvent(e)
	}
	want := Outcome{rt.Run(), fp.Sum}
	rt.Close()

	rt = row.New()
	if got := rt.Run(); got != want.Result {
		t.Fatalf("%s: unobserved run gives %+v, stepped %+v", row.Name, got, want.Result)
	}
	rt.Close()
	rt = row.New()
	fp = NewFingerprint()
	rt.Subscribe(fp)
	if got := (Outcome{rt.Run(), fp.Sum}); got != want {
		t.Fatalf("%s: one subscriber sees %+v %#x, Step %+v %#x", row.Name, got.Result, got.Hash, want.Result, want.Hash)
	}
	rt.Close()
	subs := []stream.Subscriber{stream.SubscriberFunc(func(*stream.Event) {})}
	if extra != nil {
		subs = append(subs, extra())
	}
	if got := Run(t, row, subs...); got != want {
		t.Fatalf("%s: %d subscribers see %+v %#x, Step %+v %#x", row.Name, 2+len(subs), got.Result, got.Hash, want.Result, want.Hash)
	}
}

// ZeroAlloc requires rt's steady-state Step to allocate nothing once 50
// warm-up steps have grown its buffers, and closes rt; rt must neither
// finish nor run out of budget. It is skipped under the race detector,
// whose instrumentation allocates.
func ZeroAlloc(t *testing.T, name string, rt Runtime) {
	t.Helper()
	defer rt.Close()
	if Race {
		t.Skip("allocation accounting differs under -race")
	}
	for i := 0; i < 50; i++ {
		if _, ok := rt.Step(); !ok {
			t.Fatalf("%s: finished in warm-up step %d", name, i+1)
		}
	}
	if extra := testing.AllocsPerRun(200, func() { rt.Step() }); extra > 0 {
		t.Errorf("%s: steady-state Step allocates %v", name, extra)
	}
}
