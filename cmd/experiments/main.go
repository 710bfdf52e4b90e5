// Command experiments regenerates the paper-reproduction tables. Each
// experiment (E1–E22, listed in README's experiment catalog) reproduces one
// theorem or figure of "Discovery through Gossip" (SPAA 2012) or measures
// an extension.
//
// Examples:
//
//	experiments -run all                 # everything, full scale
//	experiments -run E7,E8               # just Theorem 15 and Figure 1(c)
//	experiments -run E1 -scale 0.5       # truncated size ladder
//	experiments -run E5 -csv             # CSV for plotting
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"gossipdisc/internal/experiments"
	"gossipdisc/internal/export"
	"gossipdisc/internal/profile"
)

func main() {
	var (
		run            = flag.String("run", "all", "comma-separated experiment IDs, or \"all\"")
		seed           = flag.Uint64("seed", 0, "root seed (0 = library default)")
		trials         = flag.Int("trials", 0, "per-point trial override (0 = experiment default)")
		scale          = flag.Float64("scale", 1, "sweep-size scale factor in (0, 1]")
		csv            = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		trialsParallel = flag.Int("trials-parallel", 0, "concurrent trials per sweep point (0 = GOMAXPROCS, 1 = strictly sequential; outputs are byte-identical for every value)")
		ratesSpec      = flag.String("rates", "", "eventsim rate spec adding a custom-population table to E20, e.g. \"0.5,fast=8:0-15\" (resolved against the sweep's largest n)")
		rolesSpec      = flag.String("roles", "", "role spec adding a custom-population table to E21, e.g. \"honest,byzantine=5%,selfish=10:0-47\" (resolved against the sweep's largest n)")
		outDir         = flag.String("out", "", "also write each experiment's output to <out>/E<k>.txt (or .csv)")
		metricsAddr    = flag.String("metrics-addr", "", "serve Prometheus text-format harness-progress metrics at this host:port while the selection runs")
		list           = flag.Bool("list", false, "list experiments and exit")
		prof           profile.Flags
	)
	prof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-70s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	opts := &options{
		scale: *scale, trials: *trials, trialsParallel: *trialsParallel,
		rates: *ratesSpec, roles: *rolesSpec,
		metricsAddr: *metricsAddr, profile: prof,
	}
	if err := opts.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}()

	// -metrics-addr serves harness-progress gauges over the whole selection:
	// experiments run as black boxes (each owns its sessions), so the
	// endpoint tracks the harness, not per-round state — gossipsim
	// -metrics-addr is the per-round view.
	var completed, running atomic.Int64
	if *metricsAddr != "" {
		exp := export.NewPrometheus()
		exp.Gauge("gossip_experiments_completed", "Experiments finished so far.", func() float64 {
			return float64(completed.Load())
		})
		exp.Gauge("gossip_experiments_running", "Experiments currently running (0 or 1).", func() float64 {
			return float64(running.Load())
		})
		addr, stop, err := export.Serve(*metricsAddr, exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "experiments: serving metrics at http://%s/metrics\n", addr)
	}
	cfg := experiments.Config{
		Seed: *seed, Trials: *trials, Scale: *scale, CSV: *csv,
		TrialWorkers: *trialsParallel, RateSpec: *ratesSpec, RoleSpec: *rolesSpec,
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	for _, e := range selected {
		start := time.Now()
		if !*csv {
			fmt.Printf("=== %s — %s\n    reproduces: %s\n\n", e.ID, e.Title, e.Paper)
		}
		var out io.Writer = os.Stdout
		var file *os.File
		if *outDir != "" {
			ext := ".txt"
			if *csv {
				ext = ".csv"
			}
			var err error
			file, err = os.Create(filepath.Join(*outDir, e.ID+ext))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			out = io.MultiWriter(os.Stdout, file)
		}
		running.Store(1)
		if err := e.Run(cfg, out); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		running.Store(0)
		completed.Add(1)
		if file != nil {
			if err := file.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		}
		if !*csv {
			fmt.Printf("    (%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
	}
}
