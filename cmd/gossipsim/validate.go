package main

import (
	"fmt"
	"math"

	"gossipdisc/internal/cliflag"
	"gossipdisc/internal/core"
	"gossipdisc/internal/eventsim"
	"gossipdisc/internal/graph"
	"gossipdisc/internal/profile"
)

// options collects every flag value gossipsim accepts, so input validation
// is one pure function that table-driven tests can drive directly instead
// of relying on incidental downstream behavior (a negative -rounds used to
// silently select the default budget, and bad -fail probabilities sailed
// through).
type options struct {
	process  string
	family   string
	dfamily  string
	mode     string
	n        int
	trials   int
	seed     uint64
	rounds   int
	traceAt  int
	fail     float64
	dense    float64
	scenario string
	backend  string
	rates    string
	roles    string

	metricsAddr string
	snapshot    string
	profile     profile.Flags
}

// validate reports the first nonsensical option, or nil. Workload-family
// existence and per-family minimum sizes are checked later against the
// registry (which owns those constraints); everything checked here is a
// property of the flag values alone.
func (o *options) validate() error {
	switch o.process {
	case "push", "pull", "push-pull", "directed":
	default:
		return fmt.Errorf("unknown -process %q (want push, pull, push-pull or directed)", o.process)
	}
	switch o.mode {
	case "sync", "eager", "async":
	default:
		return fmt.Errorf("unknown -mode %q (want sync, eager or async)", o.mode)
	}
	if o.process == "directed" && o.mode == "async" {
		return fmt.Errorf("-mode async is only implemented for undirected processes")
	}
	if o.rates != "" {
		if o.mode != "async" {
			return fmt.Errorf("-rates requires -mode async: only the event-driven runtime has per-node clocks")
		}
		if err := eventsim.ValidateRateSpec(o.rates); err != nil {
			return fmt.Errorf("-rates: %w", err)
		}
	}
	if o.roles != "" {
		if err := core.ValidateRoleSpec(o.roles); err != nil {
			return fmt.Errorf("-roles: %w", err)
		}
		if o.dense > 0 {
			return fmt.Errorf("-roles cannot be combined with -dense: dense rounds sample missing edges directly and bypass per-node behaviors")
		}
		if o.scenario != "" {
			return fmt.Errorf("-roles cannot be combined with -scenario: the wire stack runs its own per-node protocol handlers")
		}
	}
	if o.n < 1 || o.n > math.MaxInt32 { // a graph holds at most math.MaxInt32 nodes
		return fmt.Errorf("-n must be in [1, %d] (got %d)", math.MaxInt32, o.n)
	}
	if o.trials < 1 {
		return fmt.Errorf("-trials must be at least 1 (got %d)", o.trials)
	}
	if _, err := graph.ParseBackend(o.backend); err != nil {
		return fmt.Errorf("-backend must be dense, sparse, or auto (got %q)", o.backend)
	}
	if o.rounds < 0 {
		return fmt.Errorf("-rounds must be >= 0 (0 = run to convergence; got %d)", o.rounds)
	}
	if o.traceAt < 0 {
		return fmt.Errorf("-trace must be >= 0 (0 = off; got %d)", o.traceAt)
	}
	// The trajectory steps the round session of an undirected process;
	// the other paths would drop -trace without a word.
	if o.traceAt > 0 && o.mode == "async" {
		return fmt.Errorf("-trace cannot be combined with -mode async: the trajectory steps the synchronous undirected session")
	}
	if o.traceAt > 0 && o.process == "directed" {
		return fmt.Errorf("-trace cannot be combined with -process directed: the trajectory steps the synchronous undirected session")
	}
	// Written so that NaN fails too: it compares false both ways, and a NaN
	// -fail makes Bernoulli never fire, a NaN -dense disarms the mode.
	if !(o.fail >= 0 && o.fail <= 1) {
		return fmt.Errorf("-fail must be a probability in [0, 1] (got %v)", o.fail)
	}
	if !(o.dense >= 0 && o.dense <= 1) {
		return fmt.Errorf("-dense must be a fraction in [0, 1] (got %v)", o.dense)
	}
	if o.dense > 0 && o.fail > 0 {
		return fmt.Errorf("-dense cannot be combined with -fail: dense rounds sample missing edges directly and bypass the process (and its failure model)")
	}
	if err := cliflag.ValidateMetricsAddr(o.metricsAddr); err != nil {
		return err
	}
	if err := o.profile.Validate(); err != nil {
		return err
	}
	switch o.snapshot {
	case "", "none", "dot", "mermaid":
	default:
		return fmt.Errorf("unknown -snapshot %q (want dot, mermaid or none)", o.snapshot)
	}
	if o.snapshot == "dot" || o.snapshot == "mermaid" {
		if o.process == "directed" {
			return fmt.Errorf("-snapshot renders the undirected contact graph (got -process directed)")
		}
		if o.scenario != "" {
			return fmt.Errorf("-snapshot cannot be combined with -scenario: the wire stack keeps per-node contact lists, not a central graph")
		}
	}
	if o.scenario != "" {
		// -scenario runs the wire-level message-passing stack, which has
		// its own scheduler and failure model: the centralized engine's
		// knobs do not apply there.
		if o.process != "push" && o.process != "pull" {
			return fmt.Errorf("-scenario runs the wire-level protocol stack, which implements push and pull only (got -process %s)", o.process)
		}
		if o.mode != "sync" {
			return fmt.Errorf("-scenario requires -mode sync: the wire simulator is inherently round-synchronous (got -mode %s)", o.mode)
		}
		if o.dense > 0 {
			return fmt.Errorf("-scenario cannot be combined with -dense: dense-phase sampling belongs to the centralized engine")
		}
		if o.fail > 0 {
			return fmt.Errorf("-scenario cannot be combined with -fail: express loss as a scenario impairment instead")
		}
		if o.traceAt > 0 {
			return fmt.Errorf("-scenario cannot be combined with -trace: trajectories ride the centralized session API")
		}
	}
	return nil
}
