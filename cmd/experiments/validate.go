package main

import (
	"fmt"

	"gossipdisc/internal/cliflag"
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/profile"
)

// options collects every flag value the experiments command accepts, so
// input validation is one pure function table-driven tests can drive
// directly — the same pattern as gossipsim's options.validate (the checks
// used to live inline in main, each with its own os.Exit).
type options struct {
	scale          float64
	trials         int
	trialsParallel int
	rates          string
	roles          string
	metricsAddr    string
	profile        profile.Flags
}

// validate reports the first nonsensical option, or nil. Everything
// checked here is a property of the flag values alone: experiment-ID
// existence is checked against the registry, and -rates node ranges are
// resolved against the sweep size inside E20.
func (o *options) validate() error {
	if !(o.scale > 0 && o.scale <= 1) { // NaN included
		return fmt.Errorf("-scale must be in (0, 1] (got %v)", o.scale)
	}
	if o.trials < 0 {
		return fmt.Errorf("-trials must be >= 0 (0 = experiment default; got %d)", o.trials)
	}
	if o.trialsParallel < 0 {
		return fmt.Errorf("-trials-parallel must be >= 0 (0 = GOMAXPROCS, 1 = sequential; got %d)", o.trialsParallel)
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
	if err := cliflag.ValidateMetricsAddr(o.metricsAddr); err != nil {
		return err
	}
	return o.profile.Validate()
}
