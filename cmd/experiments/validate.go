package main

import (
	"fmt"
	"net"
	"strconv"

	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/profile"
)

// options collects every flag value the experiments command accepts, so
// input validation is one pure function table-driven tests can drive
// directly — the same pattern as gossipsim's options.validate (the checks
// used to live inline in main, each with its own os.Exit).
// workers is the raw flag string: "auto" selects the adaptive engine,
// anything else must parse as an integer >= -1.
type options struct {
	workers        string
	trialsParallel int
	backend        string
	sched          string
	rates          string
	roles          string
	metricsAddr    string
	profile        profile.Flags
}

// validateMetricsAddr checks a -metrics-addr value exactly as gossipsim
// does: empty disables the endpoint, anything else must be host:port with a
// port in 1-65535. Pure, so tests can drive it without binding sockets.
func validateMetricsAddr(addr string) error {
	if addr == "" {
		return nil
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-metrics-addr must be host:port (got %q)", addr)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 1 || p > 65535 {
		return fmt.Errorf("-metrics-addr port must be an integer in 1-65535 (got %q)", port)
	}
	return nil
}

// workerCount resolves the -workers flag exactly as gossipsim does:
// auto == true selects the adaptive engine; otherwise n is the parsed
// count, with -1 still meaning GOMAXPROCS (resolved by the caller).
func (o *options) workerCount() (n int, auto bool, err error) {
	if o.workers == "auto" {
		return 0, true, nil
	}
	n, perr := strconv.Atoi(o.workers)
	if perr != nil {
		return 0, false, fmt.Errorf("-workers must be an integer or \"auto\" (got %q)", o.workers)
	}
	if n < -1 {
		return 0, false, fmt.Errorf("-workers must be >= -1 (-1 = GOMAXPROCS, 0 = sequential engine, auto = autoscaled; got %d)", n)
	}
	return n, false, nil
}

// validate reports the first nonsensical option, or nil. Everything
// checked here is a property of the flag values alone: experiment-ID
// existence is checked against the registry, and -rates node ranges are
// resolved against the sweep size inside E20.
func (o *options) validate() error {
	if _, _, err := o.workerCount(); err != nil {
		return err
	}
	if o.trialsParallel < 0 {
		return fmt.Errorf("-trials-parallel must be >= 0 (0 = GOMAXPROCS, 1 = sequential; got %d)", o.trialsParallel)
	}
	if _, err := graph.ParseBackend(o.backend); err != nil {
		return fmt.Errorf("-backend must be dense, sparse, or auto (got %q)", o.backend)
	}
	switch o.sched {
	case "", "both", "tick", "event":
	default:
		return fmt.Errorf("unknown -sched %q (want both, tick or event)", o.sched)
	}
	if o.rates != "" {
		if err := eventsim.ValidateRateSpec(o.rates); err != nil {
			return fmt.Errorf("-rates: %w", err)
		}
	}
	if o.roles != "" {
		if err := core.ValidateRoleSpec(o.roles); err != nil {
			return fmt.Errorf("-roles: %w", err)
		}
	}
	if err := validateMetricsAddr(o.metricsAddr); err != nil {
		return err
	}
	return o.profile.Validate()
}
