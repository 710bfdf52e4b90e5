// Command gossipsim runs a single gossip discovery process on a chosen
// workload and reports convergence statistics and (optionally) the
// minimum-degree trajectory.
//
// Examples:
//
//	gossipsim -process push -family cycle -n 256
//	gossipsim -process pull -family randtree -n 128 -trials 20
//	gossipsim -process directed -dfamily thm15 -n 64
//	gossipsim -process push -family path -n 64 -trace 50
//	gossipsim -process push -family cycle -n 512 -rounds 200 -trace 20
package main

import (
	"flag"
	"fmt"
	"os"

	"gossipdisc/internal/analyze"
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/metrics"
	"gossipdisc/internal/netsim"
	"gossipdisc/internal/profile"
	"gossipdisc/internal/protocol"
	"gossipdisc/internal/rng"
	"gossipdisc/internal/sim"
	"gossipdisc/internal/stats"
	"gossipdisc/internal/trace"
)

func main() {
	var (
		process      = flag.String("process", "push", "process: push | pull | push-pull | directed")
		family       = flag.String("family", "cycle", "undirected workload family (see -list)")
		dfamily      = flag.String("dfamily", "strong-random", "directed workload family (see -list)")
		n            = flag.Int("n", 64, "number of nodes")
		trials       = flag.Int("trials", 1, "independent trials")
		seed         = flag.Uint64("seed", 1, "root seed")
		mode         = flag.String("mode", "sync", "scheduler: sync | eager | async (per-node Poisson clocks on the event runtime; enables -rates)")
		ratesSpec    = flag.String("rates", "", "event-runtime rate spec: \"R\" sets the default rate, \"name=R:lo-hi\" defines a class over nodes lo..hi inclusive, comma-separated (empty = uniform rate 1; requires -mode async)")
		rolesSpec    = flag.String("roles", "", "role spec assigning per-node behaviors: \"role\" sets the default, \"role=K\" or \"role=P%\" quantifies with an optional \":lo-hi\" node range, comma-separated — e.g. \"honest,byzantine=5%,selfish=10:0-99\" (roles: honest, byzantine, selfish, silent, eavesdropper)")
		roundsBudget = flag.Int("rounds", 0, "stop each trial after this many rounds even if not converged (0 = run to convergence)")
		traceAt      = flag.Int("trace", 0, "print a min-degree trajectory snapshot every K rounds (0 = off; trial 0 is driven step-wise through the session API; -mode sync or eager, undirected processes only)")
		failProb     = flag.Float64("fail", 0, "connection failure probability (0..1)")
		dense        = flag.Float64("dense", 0, "dense-phase threshold fraction in (0,1]: sample missing edges once remaining work drops below this fraction (0 = off; -mode sync only)")
		scenarioPath = flag.String("scenario", "", "JSON chaos-scenario file: runs the wire-level message-passing stack under the scenario's impairments (-process push|pull; see internal/netsim/testdata/scenario.json)")
		backendName  = flag.String("backend", "dense", "graph row-storage backend: dense | sparse | auto (results are byte-identical; sparse fits n = 100k-1M)")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus text-format metrics at this host:port for the duration of the run (trial 0 carries the analyzer pack; attaching does not change results)")
		snapshotFmt  = flag.String("snapshot", "none", "print a topology snapshot of trial 0's final contact graph: dot | mermaid | none")
		list         = flag.Bool("list", false, "list workload families and exit")
		prof         profile.Flags
	)
	prof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("undirected families:", gen.FamilyNames())
		fmt.Print("directed families:  ")
		for _, f := range gen.DirectedFamilies() {
			fmt.Print(f.Name, " ")
		}
		fmt.Println()
		return
	}

	opts := &options{
		process: *process, family: *family, dfamily: *dfamily, mode: *mode,
		n: *n, trials: *trials, seed: *seed,
		rounds: *roundsBudget, traceAt: *traceAt, fail: *failProb, dense: *dense,
		scenario: *scenarioPath, backend: *backendName,
		rates: *ratesSpec, roles: *rolesSpec,
		metricsAddr: *metricsAddr, snapshot: *snapshotFmt, profile: prof,
	}
	if err := opts.validate(); err != nil {
		fatalf("%v", err)
	}
	// Registered first, so it runs last: the profiles cover everything the
	// run defers (observer teardown, the stepped trajectory table).
	stopProfile, err := prof.Start()
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fatalf("%v", err)
		}
	}()
	backend, _ := graph.ParseBackend(*backendName)
	obs := newObservability(*metricsAddr, *snapshotFmt)
	defer obs.close()

	if *scenarioPath != "" {
		runWire(*process, *family, *n, *trials, *seed, *roundsBudget, *scenarioPath, backend, obs)
		return
	}

	commit := sim.CommitSynchronous
	if *mode == "eager" {
		commit = sim.CommitEager
	}

	if *dense > 0 && *mode != "sync" {
		fmt.Fprintf(os.Stderr, "gossipsim: note: -dense applies only to -mode sync\n")
		*dense = 0
	}

	if *process == "directed" {
		runDirected(*dfamily, *n, *trials, *seed, commit, *roundsBudget, *failProb, *dense, *rolesSpec, backend, obs)
		return
	}

	var proc core.Process
	switch *process {
	case "push":
		proc = core.Push{}
	case "pull":
		proc = core.Pull{}
	case "push-pull":
		proc = core.PushPull{}
	}
	if *failProb > 0 {
		proc = core.Wrap(proc, core.Fail(*failProb))
	}
	if *rolesSpec != "" {
		// The population wraps the (possibly fault-injected) base process:
		// honest and eavesdropper nodes run it, adversarial roles replace
		// it. Eavesdroppers additionally arm the source-anonymity analyzer
		// on the metrics endpoint.
		pop, err := core.ParseRoleSpec(*rolesSpec, *n, proc)
		if err != nil {
			fatalf("%v", err)
		}
		obs.observeAnonymity(pop)
		proc = pop
	}

	fam, err := gen.FamilyByName(*family)
	if err != nil {
		fatalf("%v", err)
	}
	if *n < fam.MinN {
		fatalf("family %q needs n >= %d", fam.Name, fam.MinN)
	}

	if *mode == "async" {
		runEvent(proc, fam, *n, *trials, *seed, *roundsBudget, *ratesSpec, backend, obs)
		return
	}

	root := rng.New(*seed)
	tbl := trace.NewTable(
		fmt.Sprintf("%s on %s, n=%d, mode=%s", proc.Name(), fam.Name, *n, *mode),
		"trial", "rounds", "proposals", "new edges", "duplicates")
	var rounds []float64
	stopped := 0
	for t := 0; t < *trials; t++ {
		r := root.Split()
		g := fam.Generate(*n, r, backend)
		cfg := sim.Config{Mode: commit, MaxRounds: *roundsBudget, DensePhase: *dense}
		var res sim.Result
		if t == 0 && (*traceAt > 0 || obs.active()) {
			// Trial 0 runs through the session API so observers can ride
			// along: the analyzer pack and Prometheus exporter subscribe to
			// the observation bus, and -trace drives the run step-wise,
			// feeding the trajectory the delta Step hands back — no
			// per-round graph scans either way, and attaching observers
			// never changes the result.
			sess := sim.NewSession(g, proc, r, cfg)
			obs.attach(sess.Subscribe)
			defer obs.finish(g)
			if *traceAt > 0 {
				traj := &metrics.Trajectory{Every: *traceAt}
				for {
					d, more := sess.Step()
					if d == nil {
						break
					}
					traj.ObserveDelta(sess.Graph(), d)
					if !more {
						break
					}
				}
				defer func(traj *metrics.Trajectory) {
					traj.Finalize()
					tt := trace.NewTable("min-degree trajectory (trial 0, stepped)",
						"round", "min deg", "max deg", "edges", "missing")
					for _, s := range traj.Snapshots {
						tt.AddRow(trace.I(s.Round), trace.I(s.MinDegree),
							trace.I(s.MaxDegree), trace.I(s.Edges), trace.I(s.Missing))
					}
					tt.Render(os.Stdout)
				}(traj)
			} else {
				sess.Run()
			}
			sess.Close()
			res = sess.Stats()
		} else {
			res = sim.Run(g, proc, r, cfg)
		}
		if !res.Converged && *roundsBudget == 0 {
			fatalf("trial %d did not converge within %d rounds", t, res.Rounds)
		}
		if !res.Converged {
			stopped++
		}
		rounds = append(rounds, float64(res.Rounds))
		tbl.AddRow(trace.I(t), trace.I(res.Rounds), trace.I(res.Proposals),
			trace.I(res.NewEdges), trace.I(res.DuplicateProposals))
	}
	if stopped > 0 {
		fmt.Printf("note: %d/%d trials stopped at the -rounds budget before converging\n", stopped, *trials)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	sum := stats.Summarize(rounds)
	fn := float64(*n)
	fmt.Printf("\nrounds: %s   rounds/(n ln n)=%.3f   rounds/(n ln² n)=%.3f\n",
		sum, sum.Mean/stats.NLogN(fn), sum.Mean/stats.NLog2N(fn))
}

// runWire executes the wire-level message-passing stack (protocol.Cluster
// on netsim) under a chaos scenario: every trial is replayable from
// (seed, scenario file), and the table reports the wire's own traffic and
// impairment counters next to the discovery round count.
func runWire(process, family string, n, trials int, seed uint64, budget int, path string, backend graph.Backend, obs *observability) {
	scn, err := netsim.LoadScenario(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := scn.Validate(n); err != nil {
		fatalf("%s: %v", path, err)
	}
	proto := protocol.ProtoPush
	if process == "pull" {
		proto = protocol.ProtoPull
	}
	fam, err := gen.FamilyByName(family)
	if err != nil {
		fatalf("%v", err)
	}
	if n < fam.MinN {
		fatalf("family %q needs n >= %d", fam.Name, fam.MinN)
	}
	maxRounds := budget
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds(n)
	}
	name := scn.Name
	if name == "" {
		name = path
	}
	root := rng.New(seed)
	tbl := trace.NewTable(
		fmt.Sprintf("%s wire protocol on %s, n=%d, scenario=%s", proto, fam.Name, n, name),
		"trial", "rounds", "converged", "sent", "dropped", "delivered", "delayed", "dup", "reorder")
	var rounds []float64
	stopped := 0
	for t := 0; t < trials; t++ {
		r := root.Split()
		g := fam.Generate(n, r, backend)
		cl := protocol.NewCluster(g, proto, netsim.Config{Seed: r.Uint64(), Scenario: scn})
		if t == 0 && obs.active() {
			// Trial 0 publishes the wire's cumulative traffic counters into
			// the metrics endpoint after every wire round.
			obs.attach(cl.Net.Subscribe)
			defer obs.finish(nil)
		}
		rds, done := cl.Run(maxRounds)
		st := cl.Net.Stats()
		cl.Close()
		if !done {
			stopped++
		}
		rounds = append(rounds, float64(rds))
		tbl.AddRow(trace.I(t), trace.I(rds), fmt.Sprint(done),
			trace.I(int(st.Sent)), trace.I(int(st.Dropped)), trace.I(int(st.Delivered)),
			trace.I(int(st.Delayed)), trace.I(int(st.Duplicated)), trace.I(int(st.Reordered)))
	}
	if stopped > 0 {
		fmt.Printf("note: %d/%d trials stopped at the round budget before discovering everyone\n", stopped, trials)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	sum := stats.Summarize(rounds)
	fn := float64(n)
	fmt.Printf("\nrounds: %s   rounds/(n ln n)=%.3f   rounds/(n ln² n)=%.3f\n",
		sum, sum.Mean/stats.NLogN(fn), sum.Mean/stats.NLog2N(fn))
}

// runEvent executes trials on the event-driven runtime (-mode async):
// per-node Poisson clocks at the -rates populations, time measured in
// parallel-round units, plus the age-of-information profile (avg AoI is
// the time-averaged mean age over the run, max AoI the final maximum age).
// A -rounds budget maps to rounds × n events, saturating at math.MaxInt.
func runEvent(proc core.Process, fam gen.Family, n, trials int, seed uint64, budget int, spec string, backend graph.Backend, obs *observability) {
	rates, err := eventsim.ParseRateSpec(spec, n)
	if err != nil {
		fatalf("-rates: %v", err)
	}
	root := rng.New(seed)
	ratesLabel := spec
	if ratesLabel == "" {
		ratesLabel = "uniform 1"
	}
	tbl := trace.NewTable(
		fmt.Sprintf("%s on %s, n=%d, mode=async/event, rates=%s", proc.Name(), fam.Name, n, ratesLabel),
		"trial", "time", "events", "proposals", "new edges", "avg AoI", "max AoI")
	var rounds []float64
	stopped := 0
	for t := 0; t < trials; t++ {
		r := root.Split()
		g := fam.Generate(n, r, backend)
		cfg := eventsim.Config{Rates: rates}
		if budget > 0 {
			cfg.MaxEvents = sim.ActivationBudget(budget, n)
		}
		s := eventsim.New(g, proc, r, cfg)
		age := &analyze.Age{}
		s.Subscribe(age)
		if t == 0 && obs.active() {
			obs.attach(s.Subscribe)
			defer obs.finish(g)
		}
		res := s.Run()
		if res.Stalled {
			fatalf("trial %d stalled at time %.1f: every remaining rate is zero (see -rates)", t, res.Time)
		}
		if !res.Converged && budget == 0 {
			fatalf("trial %d did not converge within %d events", t, res.Events)
		}
		if !res.Converged {
			stopped++
		}
		rounds = append(rounds, res.ParallelRounds)
		maxAge, _ := age.MaxAge()
		tbl.AddRow(trace.I(t), trace.F(res.Time, 1), trace.I(res.Events),
			trace.I(res.Proposals), trace.I(res.NewEdges),
			trace.F(age.TimeAvgMeanAge(), 2), trace.F(maxAge, 1))
	}
	if stopped > 0 {
		fmt.Printf("note: %d/%d trials stopped at the -rounds event budget before converging\n", stopped, trials)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	sum := stats.Summarize(rounds)
	fn := float64(n)
	fmt.Printf("\nparallel time: %s   time/(n ln n)=%.3f   time/(n ln² n)=%.3f\n",
		sum, sum.Mean/stats.NLogN(fn), sum.Mean/stats.NLog2N(fn))
}

// runDirected executes trials of the two-hop walk on a directed workload,
// to the transitive closure of the start graph. A -fail probability wraps
// the walk before the role population, as on the undirected path.
func runDirected(family string, n, trials int, seed uint64, commit sim.CommitMode, budget int, fail, dense float64, roles string, backend graph.Backend, obs *observability) {
	fam, err := gen.DirectedFamilyByName(family)
	if err != nil {
		fatalf("%v", err)
	}
	if n < fam.MinN {
		fatalf("directed family %q needs n >= %d", fam.Name, fam.MinN)
	}
	var dproc core.DirectedProcess = core.DirectedTwoHop{}
	if fail > 0 {
		dproc = core.WrapDirected(dproc, core.Fail(fail))
	}
	if roles != "" {
		dpop, err := core.ParseDirectedRoleSpec(roles, n, dproc)
		if err != nil {
			fatalf("%v", err)
		}
		dproc = dpop
	}
	root := rng.New(seed)
	tbl := trace.NewTable(
		fmt.Sprintf("%s on %s, n=%d, mode=%s", dproc.Name(), fam.Name, n, commit),
		"trial", "rounds", "target arcs", "new arcs")
	var rounds []float64
	stopped := 0
	for t := 0; t < trials; t++ {
		r := root.Split()
		var g *graph.Directed = fam.Generate(n, r, backend)
		dcfg := sim.DirectedConfig{Mode: commit, MaxRounds: budget, DensePhase: dense}
		var res sim.DirectedResult
		if t == 0 && obs.active() {
			sess := sim.NewDirectedSession(g, dproc, r, dcfg)
			obs.attach(sess.Subscribe)
			defer obs.finish(nil)
			res = sess.Run()
			sess.Close()
		} else {
			res = sim.RunDirected(g, dproc, r, dcfg)
		}
		if !res.Converged && budget == 0 {
			fatalf("trial %d did not converge", t)
		}
		if !res.Converged {
			stopped++
		}
		rounds = append(rounds, float64(res.Rounds))
		tbl.AddRow(trace.I(t), trace.I(res.Rounds), trace.I(res.TargetArcs), trace.I(res.NewArcs))
	}
	if stopped > 0 {
		fmt.Printf("note: %d/%d trials stopped at the -rounds budget before reaching closure\n", stopped, trials)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	sum := stats.Summarize(rounds)
	fn := float64(n)
	fmt.Printf("\nrounds: %s   rounds/n²=%.4f   rounds/(n² ln n)=%.4f\n",
		sum, sum.Mean/stats.N2(fn), sum.Mean/stats.N2LogN(fn))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gossipsim: "+format+"\n", args...)
	os.Exit(1)
}
