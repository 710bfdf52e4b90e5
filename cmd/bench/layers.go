package main

import (
	"runtime"
	"time"

	"gossipdisc/internal/bitset"
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/protocol"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/stream"
)

// This file is the traced pass. Every number here comes from timing calls
// into a module's public functions from this package: spans around the
// calls a stepped op makes (trace.go), a shadow round assembled from the
// layers' own entry points, untraced reference drives for the ratios, and
// a fixed-count ladder over the leaf primitives. End-to-end numbers never
// come from here.

const (
	// refRuns is how many untraced drives a reference time is the median of.
	refRuns = 3
	// ladderCalls is the fixed call count of every leaf rung: enough that a
	// 2 ns primitive runs for several milliseconds.
	ladderCalls = 1 << 22
	// p99Steps is the fewest steps a p99 is reported over: ten samples
	// beyond the percentile.
	p99Steps = 1000
)

// sink keeps the ladder loops' results alive so the compiler cannot drop
// the calls.
var sink int

// nsPerCall times loop, which makes calls calls.
func nsPerCall(calls int, loop func()) float64 {
	t0 := time.Now()
	loop()
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// fork returns a private copy of r: every run of a traced pass starts from
// the same generator state, so all of them do the same simulated work.
func fork(r rng.Rand) *rng.Rand { return &r }

// memDelta is the Go runtime's allocation and collection work over one op.
type memDelta struct {
	allocBytes, mallocs, pauseNS uint64
	cycles                       uint32
}

func (l layers) setGo(m memDelta) {
	l["go.alloc_mb_per_op"] = float64(m.allocBytes) / (1 << 20)
	l["go.allocs_per_op"] = float64(m.mallocs)
	l["go.gc_cycles_per_op"] = float64(m.cycles)
	l["go.gc_pause_ms_per_op"] = float64(m.pauseNS) / 1e6
}

// refDrive builds and drives the op refRuns times untraced on copies of r —
// the same seed, so the same simulated work, as the traced op — and returns
// the median drive time in seconds with the last op's (set-up and drive)
// runtime deltas.
func refDrive(setup func(r *rng.Rand) op, r rng.Rand) (float64, memDelta) {
	var times []float64
	var before, after runtime.MemStats
	for i := 0; i < refRuns; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		o := setup(fork(r))
		t0 := time.Now()
		o.run()
		times = append(times, time.Since(t0).Seconds())
		runtime.ReadMemStats(&after)
	}
	return stats.Median(times), memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		pauseNS:    after.PauseTotalNs - before.PauseTotalNs,
		cycles:     after.NumGC - before.NumGC,
	}
}

// liveHeap returns HeapAlloc after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setSteps reports a stepped run's per-step spread under prefix: the
// median always, the p99 only over enough steps to have ten beyond it.
func (l layers) setSteps(prefix string, stepNS []float64) {
	l[prefix+".step_us_p50"] = stats.Median(stepNS) / 1e3
	if len(stepNS) >= p99Steps {
		l[prefix+".step_us_p99"] = stats.Quantile(stepNS, 0.99) / 1e3
	}
}

// leafLadder times the primitives that belong to no graph. The bit set is
// 8 KiB, so the rungs price the instructions, not the cache.
func (l layers) leafLadder() {
	r := rng.New(1)
	acc := 0
	l["rng.intn_ns"] = nsPerCall(ladderCalls, func() {
		for i := 0; i < ladderCalls; i++ {
			acc += r.Intn(4096)
		}
	})
	x := 0.0
	l["rng.exp_ns"] = nsPerCall(ladderCalls, func() {
		for i := 0; i < ladderCalls; i++ {
			x += r.Exp()
		}
	})
	set := bitset.New(1 << 16)
	l["bitset.orword_ns"] = nsPerCall(ladderCalls, func() {
		for i := 0; i < ladderCalls; i++ {
			acc += int(set.OrWord(i&1023, 1<<(uint(i>>10)&63)))
		}
	})
	l["bitset.test_ns"] = nsPerCall(ladderCalls, func() {
		for i := 0; i < ladderCalls; i++ {
			if set.Test(i * 7919 & (1<<16 - 1)) {
				acc++
			}
		}
	})
	sink += acc + int(x)
}

// actNS times p.Act with a counting propose, node after node as a round's
// act phase visits them. The graph is only read.
func actNS(g *graph.Undirected, p core.Process) float64 {
	r := rng.New(2)
	acc := 0
	propose := func(a, b int) { acc += a + b }
	n := g.N()
	ns := nsPerCall(ladderCalls, func() {
		for i, u := 0, 0; i < ladderCalls; i++ {
			p.Act(g, u, r, propose)
			if u++; u == n {
				u = 0
			}
		}
	})
	sink += acc
	return ns
}

// graphLadder times the undirected graph layer's read primitives on g under
// its backend's name.
func (l layers) graphLadder(g *graph.Undirected) {
	r := rng.New(3)
	acc := 0
	n := g.N()
	backend := g.Backend().String()
	l["graph."+backend+".neighborpair_ns"] = nsPerCall(ladderCalls, func() {
		for i, u := 0, 0; i < ladderCalls; i++ {
			v, w := g.RandomNeighborPair(u, r)
			acc += v + w
			if u++; u == n {
				u = 0
			}
		}
	})
	if g.Backend() == graph.BackendSparse {
		l["graph.sparse.hasedge_ns"] = nsPerCall(ladderCalls, func() {
			for i, u := 0, 0; i < ladderCalls; i++ {
				if g.HasEdge(u, (u+i*7919)%n) {
					acc++
				}
				if u++; u == n {
					u = 0
				}
			}
		})
	}
	sink += acc
}

// digest fingerprints g's adjacency lists in insertion order — stricter
// than Equal, and it lets two runs be compared without both graphs alive.
func digest(g *graph.Undirected) uint64 {
	h := uint64(14695981039346656037)
	for u, n := 0, g.N(); u < n; u++ {
		d := g.Degree(u)
		h = (h ^ uint64(d)) * 1099511628211
		for i := 0; i < d; i++ {
			h = (h ^ uint64(g.Neighbor(u, i))) * 1099511628211
		}
	}
	return h
}

// shadow is a synchronous round assembled purely from public layer calls,
// one span per phase. It reproduces a Workers: 0 session stepped with Step
// bit for bit, which is what makes "Step = sum of phases + glue" a measured
// statement rather than an estimate.
type shadow struct {
	tr        *tracer
	g         *graph.Undirected
	p         core.Process
	r         *rng.Rand
	maxRounds int

	buf, accepted []graph.Edge
	propose       func(a, b int)
	acc           *stream.DeltaAccumulator
	bus           stream.Bus
	started       bool
	res           sim.Result
}

func newShadow(tr *tracer, g *graph.Undirected, p core.Process, r *rng.Rand, maxRounds int) *shadow {
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds(g.N())
	}
	s := &shadow{tr: tr, g: g, p: p, r: r, maxRounds: maxRounds, acc: stream.NewDeltaAccumulator(g.N())}
	s.propose = func(a, b int) { s.buf = append(s.buf, graph.Edge{U: a, V: b}) }
	return s
}

// step runs one round and reports whether another can follow.
func (s *shadow) step() bool {
	if !s.started {
		s.started = true
		s.res.Converged = s.g.IsComplete()
	}
	if s.res.Converged || s.res.Rounds >= s.maxRounds {
		return false
	}
	tr := s.tr
	tr.begin("shadow.round")
	tr.begin("core.act")
	s.buf = s.buf[:0]
	for u, n := 0, s.g.N(); u < n; u++ {
		s.p.Act(s.g, u, s.r, s.propose)
	}
	tr.end()
	tr.begin("graph.commit")
	s.accepted = s.g.AddEdgesGrouped(s.buf, s.accepted[:0])
	tr.end()
	s.res.Rounds++
	s.res.Proposals += len(s.buf)
	s.res.NewEdges += len(s.accepted)
	s.res.DuplicateProposals += len(s.buf) - len(s.accepted)
	tr.begin("stream.fill")
	s.acc.Fill(s.res.Rounds, s.g, s.accepted)
	tr.end()
	tr.begin("stream.publish")
	s.bus.EmitRound(s.g, &s.acc.D, float64(s.res.Rounds))
	tr.end()
	tr.begin("graph.done")
	s.res.Converged = s.g.IsComplete()
	tr.end()
	tr.end()
	return !s.res.Converged && s.res.Rounds < s.maxRounds
}

// shadowPhases maps each sim.*_share metric to the shadow span it is the
// share of.
var shadowPhases = []struct{ metric, span string }{
	{"sim.act_share", "core.act"},
	{"sim.commit_share", "graph.commit"},
	{"sim.fill_share", "stream.fill"},
	{"sim.publish_share", "stream.publish"},
	{"sim.done_share", "graph.done"},
}

// stepped drives one session of the workload's input step by step under
// cfg, a span around every call, and returns the final graph and Result.
func (s roundSpec) stepped(tr *tracer, label string, cfg sim.Config, r rng.Rand) (*graph.Undirected, sim.Result) {
	tr.op = label
	tr.begin("gen.build")
	g := gen.Cycle(s.n, s.backend)
	tr.end()
	tr.begin("session.new")
	sess := sim.NewSession(g, s.proc, fork(r), cfg)
	tr.end()
	for more := true; more; {
		tr.begin("sim.step")
		_, more = sess.Step()
		tr.end()
	}
	sess.Close()
	return g, sess.Stats()
}

func (s roundSpec) trace(tr *tracer, r rng.Rand) (layers, error) {
	l := layers{}
	l.leafLadder()
	ref, mem := refDrive(s.setup, r)
	l.setGo(mem)
	for _, v := range s.ratios {
		// A configuration with workers gets a processor for each.
		restore := runtime.GOMAXPROCS(max(1, v.cfg.Workers))
		t, _ := refDrive(s.setupWith(v.cfg), r)
		runtime.GOMAXPROCS(restore)
		if v.speedup {
			l[v.metric] = ref / t
		} else {
			l[v.metric] = t / ref
		}
	}

	// The op itself, stepped under the workload's own configuration.
	base := liveHeap()
	g, res := s.stepped(tr, "op", s.cfg, r)
	err := s.check(g, s.n, res, false)
	if s.backend == graph.BackendSparse {
		l["graph.sparse.bytes_per_edge"] = float64(liveHeap()-base) / float64(g.M())
	}
	stepNS := tr.durations("op", "sim.step")
	drive := tr.total("op", "sim.step")
	l.setSteps("sim", stepNS)
	l["sim.step_ns_per_proposal"] = drive / float64(res.Proposals)
	l["trace.overhead_share"] = drive/1e9/ref - 1
	l["gen.cycle_ns_per_node"] = tr.total("op", "gen.build") / float64(s.n)
	l["sim.rounds"] = float64(res.Rounds)
	l["sim.proposals"] = float64(res.Proposals)
	l["sim.new_edges"] = float64(res.NewEdges)
	l["graph.commit_accept_share"] = float64(res.NewEdges) / float64(res.Proposals)

	// The same input and seed through a Workers: 0 session (the op itself
	// when the workload already runs there), then through the shadow. Only
	// the digest of the session's graph is kept, so at most one graph of
	// the workload's size is live at a time.
	w0, res0 := "op", res
	if s.cfg.Workers != 0 {
		cfg := s.cfg
		cfg.Workers = 0
		w0 = "w0"
		g = nil
		runtime.GC()
		g, res0 = s.stepped(tr, w0, cfg, r)
	}
	want := digest(g)

	tr.op = "shadow"
	g = nil
	runtime.GC()
	g = gen.Cycle(s.n, s.backend)
	sh := newShadow(tr, g, s.proc, fork(r), s.cfg.MaxRounds)
	for mid := max(1, res0.Rounds/2); sh.step(); {
		if sh.res.Rounds == mid {
			// The leaf rungs, on the graph as it is halfway through.
			l.graphLadder(g)
			l["core."+s.proc.Name()+".act_ns_per_node"] = actNS(g, s.proc)
			if s.wire > 0 {
				// The wire stack and the population dispatch are priced
				// where the plain push they are compared against runs.
				l["core.population.act_ns_per_node"] = actNS(g, core.NewPopulation(s.n, s.proc))
			}
		}
	}
	l["sim.shadow_match"] = 0
	if sh.res == res0 && digest(g) == want {
		l["sim.shadow_match"] = 1
	}
	stepTotal, phases := tr.total(w0, "sim.step"), 0.0
	for _, ph := range shadowPhases {
		t := tr.total("shadow", ph.span)
		l[ph.metric] = t / stepTotal
		phases += t
	}
	l["sim.glue_share"] = 1 - phases/stepTotal
	l["graph."+s.backend.String()+".commit_ns_per_proposal"] = tr.total("shadow", "graph.commit") / float64(sh.res.Proposals)

	if s.wire > 0 {
		l.wireLadder(tr, s.wire, r.Uint64())
	}
	return l, err
}

// wireLadder prices the message-passing stack: the push protocol on an
// n-cycle over a pristine wire, one span per network round, to the round
// every node knows every other.
func (l layers) wireLadder(tr *tracer, n int, seed uint64) {
	tr.op = "wire"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parWorkers()))
	cl := protocol.NewCluster(gen.Cycle(n), protocol.ProtoPush, netsim.Config{Seed: seed, Workers: parWorkers()})
	defer cl.Close()
	for budget := sim.DefaultMaxRounds(n); !cl.AllDiscovered() && cl.Net.Stats().Rounds < budget; {
		tr.begin("netsim.round")
		cl.Net.Round(cl.Handlers)
		tr.end()
	}
	st := cl.Net.Stats()
	total := tr.total("wire", "netsim.round")
	l["netsim.round_us"] = total / 1e3 / float64(st.Rounds)
	l["netsim.msgs_per_s"] = float64(st.Sent) / (total / 1e9)
	l["netsim.delivered_share"] = float64(st.Delivered) / float64(st.Sent)
	l["protocol.rounds"] = float64(st.Rounds)
}

func (s eventSpec) trace(tr *tracer, r rng.Rand) (layers, error) {
	l := layers{}
	l.leafLadder()
	ref, mem := refDrive(s.setup, r)
	l.setGo(mem)

	tr.op = "op"
	tr.begin("gen.build")
	g := gen.Cycle(s.n, graph.BackendSparse)
	tr.end()
	tr.begin("session.new")
	sess := eventsim.New(g, core.Push{}, fork(r), eventsim.Config{MaxEvents: s.maxEvents, Done: never})
	tr.end()
	mid := max(1, s.maxEvents/s.n/2)
	for more := true; more; {
		tr.begin("eventsim.step")
		_, more = sess.Step()
		tr.end()
		if sess.Round() == mid {
			mid = -1
			l.graphLadder(g)
			l["core.push.act_ns_per_node"] = actNS(g, core.Push{})
		}
	}
	res := sess.Stats()
	err := s.check(g, s.n, res, false)
	drive := tr.total("op", "eventsim.step")
	l["eventsim.ns_per_event"] = drive / float64(res.Events)
	l["trace.overhead_share"] = drive/1e9/ref - 1
	l["gen.cycle_ns_per_node"] = tr.total("op", "gen.build") / float64(s.n)
	l["eventsim.events"] = float64(res.Events)
	l["eventsim.new_edges"] = float64(res.NewEdges)
	l["graph.commit_accept_share"] = float64(res.NewEdges) / float64(res.Proposals)

	// The tick scheduler makes the same number of activations on the same
	// input without a pending-event heap: the difference is what the
	// event schedule costs.
	g = gen.Cycle(s.n, graph.BackendSparse)
	runtime.GC()
	t0 := time.Now()
	ticks := sim.RunAsync(g, core.Push{}, fork(r), sim.AsyncConfig{MaxTicks: s.maxEvents, Done: never}).Ticks
	l["sim.async_ns_per_tick"] = float64(time.Since(t0).Nanoseconds()) / float64(ticks)
	l["eventsim.sched_overhead_ns"] = l["eventsim.ns_per_event"] - l["sim.async_ns_per_tick"]

	skewed, _ := refDrive(s.setupWith(func() *eventsim.RateMap {
		rates, err := eventsim.ParseRateSpec(s.skew, s.n)
		if err != nil {
			panic(err) // the spec is a constant of the benchmark
		}
		return rates
	}), r)
	l["eventsim.skew_ns_per_event"] = skewed * 1e9 / float64(s.maxEvents)

	// Park and wake nodes between steps of a running session.
	const retunes = 1000
	sess = eventsim.New(gen.Cycle(s.n, graph.BackendSparse), core.Push{}, fork(r), eventsim.Config{MaxEvents: -1, Done: never})
	sess.Step()
	l["eventsim.setrate_ns"] = nsPerCall(retunes, func() {
		for i := 0; i < retunes/2; i++ {
			u := i * (s.n / (retunes / 2))
			sess.SetNodeRate(u, 0)
			sess.SetNodeRate(u, 1)
		}
	})
	return l, err
}

func (s churnSpec) trace(tr *tracer, r rng.Rand) (layers, error) {
	l := layers{}
	l.leafLadder()
	ref, mem := refDrive(s.setup, r)
	l.setGo(mem)
	bare, _ := refDrive(s.setupWith(false), r)
	l["churn.observed_over_bare"] = ref / bare

	tr.op = "op"
	tr.begin("session.new")
	c := s.newRun(fork(r), true, tr)
	tr.end()
	// Between steps, replay the round's accepted edges through the bus
	// layer's own entry points: a fill, and a publish to one subscriber
	// that does nothing.
	acc := stream.NewDeltaAccumulator(s.cfg.Capacity)
	var bus stream.Bus
	bus.Subscribe(stream.SubscriberFunc(func(*stream.Event) {}))
	c.between = func(round int, d *sim.RoundDelta) {
		g := c.cs.Graph()
		tr.begin("stream.fill")
		acc.Fill(round, g, d.NewEdges)
		tr.end()
		tr.begin("stream.publish")
		bus.EmitRound(g, &acc.D, float64(round))
		tr.end()
		if round == max(1, s.rounds/2) {
			alive := make([]bool, s.cfg.Capacity)
			for u := range alive {
				alive[u] = c.cs.Alive(u)
			}
			l.graphLadder(g)
			l["core.crashed.act_ns_per_node"] = actNS(g, core.Crashed{Inner: core.Push{}, Alive: alive})
		}
	}
	c.drive()
	_, err := c.verify(false)

	rounds, edges := float64(s.rounds), float64(c.deltaEdges)
	scrapes := float64(len(tr.durations("op", "export.scrape")))
	l.setSteps("churn", tr.durations("op", "churn.step"))
	l["trace.overhead_share"] = (tr.total("op", "churn.step")+tr.total("op", "export.scrape"))/1e9/ref - 1
	l["stream.fill_ns_per_edge"] = tr.total("op", "stream.fill") / edges
	l["stream.publish_ns_per_round"] = tr.total("op", "stream.publish") / rounds
	l["analyze.health_ns_per_edge"] = tr.total("op", "analyze.health") / edges
	l["metrics.trajectory_ns_per_round"] = tr.total("op", "metrics.trajectory") / rounds
	l["export.onevent_ns_per_round"] = tr.total("op", "export.onevent") / rounds
	l["export.scrape_us"] = tr.total("op", "export.scrape") / 1e3 / scrapes
	l["export.scrape_bytes"] = float64(c.scrapeBytes) / scrapes
	l["sim.rounds"] = rounds
	l["sim.new_edges"] = edges
	l["churn.coverage"] = c.cs.Coverage()
	return l, err
}

func (s directedSpec) trace(tr *tracer, r rng.Rand) (layers, error) {
	l := layers{}
	l.leafLadder()
	ref, mem := refDrive(s.setup, r)
	l.setGo(mem)

	// Graph 0 once untraced, to learn which round is its middle one.
	first := s
	first.graphs = 1
	pre := first.newRun(fork(r), nil)
	pre.drive()
	mid := max(1, pre.sessions[0].Stats().Rounds/2)

	tr.op = "op"
	d := s.newRun(fork(r), tr)
	for k, sess := range d.sessions {
		for more := true; more; {
			tr.begin("sim.directed.step")
			_, more = sess.Step()
			tr.end()
			if k == 0 && sess.Stats().Rounds == mid {
				l.directedLadder(d.graphs[0])
			}
		}
		sess.Close()
	}
	out, err := d.verify(false)
	rounds, arcs := 0, 0
	for _, sess := range d.sessions {
		rounds += sess.Stats().Rounds
		arcs += sess.Stats().NewArcs
	}
	drive := tr.total("op", "sim.directed.step")
	l["sim.directed.step_ns_per_proposal"] = drive / float64(out.proposals)
	l["trace.overhead_share"] = drive/1e9/ref - 1
	l["gen.strong_ns_per_node"] = tr.total("op", "gen.build") / float64(s.graphs*s.n)
	l["sim.rounds"] = float64(rounds)
	l["sim.proposals"] = float64(out.proposals)
	l["sim.new_edges"] = float64(arcs)
	l["graph.commit_accept_share"] = float64(arcs) / float64(out.proposals)
	return l, err
}

// directedLadder times the directed act on g, and the directed grouped
// commit on a clone of g driven through commitRounds further rounds of
// collected proposals.
func (l layers) directedLadder(g *graph.Directed) {
	const commitRounds = 256
	p := core.DirectedTwoHop{}
	r := rng.New(2)
	n := g.N()
	acc := 0
	count := func(a, b int) { acc += a + b }
	l["core.directed.act_ns_per_node"] = nsPerCall(ladderCalls, func() {
		for i, u := 0, 0; i < ladderCalls; i++ {
			p.Act(g, u, r, count)
			if u++; u == n {
				u = 0
			}
		}
	})
	sink += acc

	c := g.Clone()
	var buf, accepted []graph.Arc
	collect := func(a, b int) { buf = append(buf, graph.Arc{U: a, V: b}) }
	var commit time.Duration
	proposals := 0
	for round := 0; round < commitRounds; round++ {
		buf = buf[:0]
		for u := 0; u < n; u++ {
			p.Act(c, u, r, collect)
		}
		t0 := time.Now()
		accepted = c.AddArcsGrouped(buf, accepted[:0])
		commit += time.Since(t0)
		proposals += len(buf)
	}
	l["graph.directed.commit_ns_per_proposal"] = float64(commit.Nanoseconds()) / float64(proposals)
}
