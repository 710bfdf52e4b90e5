// Command bench is the repo's measurement spine: one command that runs six
// named workloads, prints the named end-to-end metrics of each with units
// and bounds, checks every op's output, and — in a separate traced pass —
// prints a per-layer ladder timed from this package's own files. See
// README.md for the workload and metric tables.
//
//	go run ./cmd/bench                                   # both passes, all workloads
//	go run ./cmd/bench -workload sparse-1m -trace 0      # one pass of one workload
//	go run ./cmd/bench -out A.json                       # record a result file
//	go run ./cmd/bench -compare A.json B.json            # judge B against A
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"text/tabwriter"
	"time"

	"gossipdisc/internal/rng"
)

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      string
	out        string
	spans      string
	cpuprofile string
	memprofile string
	compare    bool
	child      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	flag.Uint64Var(&o.seed, "seed", 1, "root seed every op's generator derives from")
	flag.IntVar(&o.seconds, "seconds", 10, "how long each workload's end-to-end pass measures")
	flag.StringVar(&o.trace, "trace", "both", "which pass to run: 0 end-to-end, 1 traced, both")
	flag.StringVar(&o.out, "out", "", "write the result file here")
	flag.StringVar(&o.spans, "spans", "", "write each traced workload's spans to <dir>/<workload>.json")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the selected workload's pass (needs -workload and -trace 0|1)")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile after the selected workload's pass (needs -workload and -trace 0|1)")
	flag.BoolVar(&o.compare, "compare", false, "judge result file B against A: bench -compare A.json B.json")
	flag.BoolVar(&o.child, "child", false, "internal: run one pass of one workload in this process")
	flag.Parse()

	code, err := run(o, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(o options, args []string) (int, error) {
	if o.compare {
		if len(args) != 2 {
			return 2, errors.New("-compare takes two result files")
		}
		a, err := readResultFile(args[0])
		if err != nil {
			return 2, err
		}
		b, err := readResultFile(args[1])
		if err != nil {
			return 2, err
		}
		if compare(os.Stdout, a, b) {
			return 1, nil
		}
		return 0, nil
	}
	if len(args) > 0 {
		return 2, fmt.Errorf("unexpected argument %q", args[0])
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return 2, fmt.Errorf("GOMAXPROCS %d exceeds the %d processors available: timings would measure the scheduler",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if o.seconds < 1 {
		return 2, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	var passes []string
	switch o.trace {
	case "0", "1":
		passes = []string{o.trace}
	case "both":
		passes = []string{"0", "1"}
	default:
		return 2, fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	selected := workloads()
	if o.workload != "" {
		selected = nil
		for _, w := range workloads() {
			if w.name == o.workload {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	single := len(selected) == 1 && len(passes) == 1
	if (o.cpuprofile != "" || o.memprofile != "") && !single {
		return 2, errors.New("-cpuprofile and -memprofile profile one pass of one workload: give -workload and -trace 0|1")
	}
	if o.child {
		if !single {
			return 2, errors.New("-child runs one pass of one workload")
		}
		return 0, runChild(o, selected[0])
	}
	return runParent(o, selected, passes, single)
}

// runChild runs one pass of one workload in this process and prints its
// result as JSON. The parent gives every workload a process of its own, so
// peak RSS and collector state belong to that workload alone.
func runChild(o options, w workload) (err error) {
	if o.cpuprofile != "" {
		f, cerr := os.Create(o.cpuprofile)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}

	res := workloadResult{Name: w.name}
	if o.trace == "0" {
		e := measure(w, o.seed, time.Duration(o.seconds)*time.Second)
		res.EndToEnd = &e
	} else {
		t, err := traced(w, o.seed, o.spans)
		if err != nil {
			return err
		}
		res.Traced = &t
	}

	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// traced runs w's traced pass on the first op's generator — on one
// processor, as the end-to-end pass does (see measure), except where it
// prices a configuration with more workers.
func traced(w workload, seed uint64, spansDir string) (tracedResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := newTracer()
	l, err := w.trace(tr, *rng.New(seed).Split())
	res := tracedResult{Attempted: 1, Metrics: map[string]value{}, Spans: tr.summary()}
	if err != nil {
		res.Failed = 1
		res.Failures = []string{err.Error()}
	}
	for name, v := range l {
		res.Metrics[name] = value{Value: v, Unit: unitOf(name)}
	}
	if spansDir == "" {
		return res, nil
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	return res, tr.writeFile(filepath.Join(spansDir, w.name+".json"))
}

// runParent re-executes this binary once per selected workload and pass,
// prints each result as it arrives, and writes the result file.
func runParent(o options, selected []workload, passes []string, single bool) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 2, fmt.Errorf("locate own binary: %w", err)
	}
	rf := newResultFile(o.seed, o.seconds)
	for _, w := range selected {
		rf.Workloads = append(rf.Workloads, workloadResult{Name: w.name})
	}
	failed := 0
	for _, pass := range passes {
		for i, w := range selected {
			args := []string{"-child", "-workload", w.name, "-trace", pass,
				"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
			for _, f := range [][2]string{{"-spans", o.spans}, {"-cpuprofile", o.cpuprofile}, {"-memprofile", o.memprofile}} {
				if f[1] != "" {
					args = append(args, f[0], f[1])
				}
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return 2, fmt.Errorf("%s, pass %s: %w", w.name, pass, err)
			}
			var res workloadResult
			if err := json.Unmarshal(out, &res); err != nil {
				return 2, fmt.Errorf("%s, pass %s: decode child result: %w", w.name, pass, err)
			}
			if res.EndToEnd != nil {
				rf.Workloads[i].EndToEnd = res.EndToEnd
				failed += res.EndToEnd.Failed
				printEndToEnd(w, res.EndToEnd)
			}
			if res.Traced != nil {
				rf.Workloads[i].Traced = res.Traced
				failed += res.Traced.Failed
				printTraced(w, res.Traced)
			}
		}
	}
	if o.out != "" {
		if err := rf.write(o.out); err != nil {
			return 2, err
		}
	}
	if single {
		if err := printDriverLine(rf.Workloads[0]); err != nil {
			return 2, err
		}
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

func printEndToEnd(w workload, e *endToEndResult) {
	fmt.Printf("\n%s  end to end: %d timed ops, %d attempted, %d failed\n", w.name, len(e.Ops), e.Attempted, e.Failed)
	for _, f := range e.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tmedian\tq1\tq3\tn\tunit\tbetter\tbound")
	for _, d := range endToEnd {
		v := e.Metrics[d.name]
		if v.N > 0 {
			fmt.Fprintf(tw, "  %s\t%.6g\t%.6g\t%.6g\t%d\t%s\t%s\t%.0f%%\n", d.name, v.Value, v.Q1, v.Q3, v.N, d.unit, d.better, 100*d.bound)
		} else {
			fmt.Fprintf(tw, "  %s\t%.6g\t\t\t\t%s\t%s\t%.0f%%\n", d.name, v.Value, d.unit, d.better, 100*d.bound)
		}
	}
	tw.Flush()
}

func printTraced(w workload, t *tracedResult) {
	fmt.Printf("\n%s  traced: %d attempted, %d failed\n", w.name, t.Attempted, t.Failed)
	for _, f := range t.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer metric\tvalue\tunit")
	for _, d := range perLayer {
		if v, ok := t.Metrics[d.name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, v.Value, d.unit)
		}
	}
	fmt.Fprintln(tw, "  \t\t\t")
	fmt.Fprintln(tw, "  run\tspan\tcount\ttotal ms\tself ms")
	for _, s := range t.Spans {
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%.3f\t%.3f\n", s.Op, s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	tw.Flush()
}

// printDriverLine prints, as the last line of output, the one-object
// summary an outside driver reads: every end-to-end metric after an
// end-to-end pass, every per-layer metric after a traced one (0 where the
// workload does not exercise the layer).
func printDriverLine(res workloadResult) error {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Metrics: map[string]reading{}}
	if e := res.EndToEnd; e != nil {
		line.Attempted, line.Failed = e.Attempted, e.Failed
		for _, d := range endToEnd {
			if d.bound > 0 {
				line.Metrics[d.name] = reading{e.Metrics[d.name].Value, d.unit}
			}
		}
	} else {
		line.Attempted, line.Failed = res.Traced.Attempted, res.Traced.Failed
		for _, d := range perLayer {
			line.Metrics[d.name] = reading{res.Traced.Metrics[d.name].Value, d.unit}
		}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode driver line: %w", err)
	}
	fmt.Println(string(out))
	return nil
}
