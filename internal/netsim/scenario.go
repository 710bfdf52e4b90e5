// Scenario-driven fault injection: a declarative, JSON-loadable description
// of how the wire misbehaves, compiled into an impairment pipeline that sits
// between routing and delivery. Every random decision the pipeline makes is
// drawn from dedicated split streams in deterministic (sender, message)
// order, so one (seed, scenario) pair replays bit-identically no matter how
// handlers are scheduled.
package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Impairment describes the wire behavior of one direction of one link
// while a phase is active. The zero value is a perfect wire.
type Impairment struct {
	// Loss drops each message independently with this probability.
	Loss float64 `json:"loss,omitempty"`
	// Delay buffers each message for this many extra rounds beyond the
	// synchronous next-round delivery (delay d arrives at round t+1+d).
	Delay int `json:"delay,omitempty"`
	// Jitter adds a uniform extra delay in {0, …, Jitter} rounds on top
	// of Delay, drawn per message.
	Jitter int `json:"jitter,omitempty"`
	// Reorder detaches each message from the deterministic sender-sorted
	// inbox order with this probability, reinserting it at a random
	// position of its delivery inbox.
	Reorder float64 `json:"reorder,omitempty"`
	// Duplicate delivers a second, independently delayed copy of each
	// message with this probability.
	Duplicate float64 `json:"duplicate,omitempty"`
}

// IsZero reports whether the impairment is a perfect wire.
func (im Impairment) IsZero() bool {
	return im.Loss == 0 && im.Delay == 0 && im.Jitter == 0 && im.Reorder == 0 && im.Duplicate == 0
}

// maxDelay caps Delay + Jitter, in rounds. A copy is keyed by its delivery
// round, round+1+Delay+jitter, and the jitter draw is Intn(Jitter+1): near
// MaxInt either sum wraps, to a negative round that never arrives or to a
// non-positive Intn bound that panics. 2^30 rounds is far past any run
// while keeping every such sum far from overflow.
const maxDelay = 1 << 30

func (im Impairment) validate(ctx string) error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", im.Loss}, {"reorder", im.Reorder}, {"duplicate", im.Duplicate}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s: %s probability %v outside [0, 1]", ctx, p.name, p.v)
		}
	}
	if im.Delay < 0 {
		return fmt.Errorf("%s: negative delay %d", ctx, im.Delay)
	}
	if im.Jitter < 0 {
		return fmt.Errorf("%s: negative jitter %d", ctx, im.Jitter)
	}
	if im.Delay > maxDelay || im.Jitter > maxDelay-im.Delay {
		return fmt.Errorf("%s: delay %d + jitter %d above %d rounds", ctx, im.Delay, im.Jitter, maxDelay)
	}
	return nil
}

// LinkRule applies an impairment to the directed links it matches. A nil
// endpoint is a wildcard, so {To: Node(3), Loss: 1} severs every inbound
// link of node 3 while leaving its outbound links intact — asymmetric
// (NAT-like) reachability falls out of the directionality for free.
type LinkRule struct {
	// From matches the sending node (nil = any sender).
	From *int `json:"from,omitempty"`
	// To matches the receiving node (nil = any receiver).
	To *int `json:"to,omitempty"`
	Impairment
}

// Node is a convenience for building LinkRules in Go: Node(3) pins a rule
// endpoint that JSON scenarios express as "from": 3.
func Node(u int) *int { return &u }

func (lr LinkRule) matches(from, to int) bool {
	return (lr.From == nil || *lr.From == from) && (lr.To == nil || *lr.To == to)
}

// Phase is one timed stanza of a scenario: for rounds From..Until it
// overlays impairments, a partition, and a crashed-node set on the wire.
type Phase struct {
	// From is the first affected round, 1-based. 0 means round 1.
	From int `json:"from,omitempty"`
	// Until is the last affected round, inclusive. 0 means "until the
	// run ends" — a partition with Until set is a partition that heals.
	Until int `json:"until,omitempty"`
	// All impairs every directed link; Links override it for the links
	// they match (the last matching rule wins whole).
	All *Impairment `json:"all,omitempty"`
	// Links are directional per-link impairments, applied in order.
	Links []LinkRule `json:"links,omitempty"`
	// Partition lists disjoint node groups; messages between different
	// groups are dropped while the phase is active. Nodes not listed in
	// any group form one extra implicit group together.
	Partition [][]int `json:"partition,omitempty"`
	// Crash lists nodes that are down for the phase: their handlers do
	// not run, their generators freeze, and messages addressed to them
	// are lost. When the phase ends the node restarts (its handler keeps
	// its state; see CrashAware for the transition hooks).
	Crash []int `json:"crash,omitempty"`
}

func (p Phase) activeAt(round int) bool {
	from := p.From
	if from < 1 {
		from = 1
	}
	return round >= from && (p.Until == 0 || round <= p.Until)
}

// Scenario is a declarative chaos schedule over the wire: an ordered list
// of timed phases. Phases may overlap; for link impairments the last
// matching rule of the last active phase wins, while partitions and
// crashes from all active phases accumulate.
type Scenario struct {
	// Name labels the scenario in output and errors.
	Name string `json:"name,omitempty"`
	// Phases are the timed impairment stanzas.
	Phases []Phase `json:"phases"`
}

// Validate checks the scenario against a network of n nodes. n <= 0 skips
// the node-range checks (used when parsing before the size is known).
func (s *Scenario) Validate(n int) error {
	if s == nil {
		return nil
	}
	checkNode := func(u int, ctx string) error {
		if u < 0 || (n > 0 && u >= n) {
			return fmt.Errorf("%s: node %d out of range [0, %d)", ctx, u, n)
		}
		return nil
	}
	for pi, ph := range s.Phases {
		ctx := fmt.Sprintf("scenario %q phase %d", s.Name, pi)
		if ph.From < 0 {
			return fmt.Errorf("%s: negative from round %d", ctx, ph.From)
		}
		if ph.Until < 0 {
			return fmt.Errorf("%s: negative until round %d", ctx, ph.Until)
		}
		from := ph.From
		if from < 1 {
			from = 1
		}
		if ph.Until != 0 && ph.Until < from {
			return fmt.Errorf("%s: until %d before from %d", ctx, ph.Until, from)
		}
		if ph.All != nil {
			if err := ph.All.validate(ctx + " all"); err != nil {
				return err
			}
		}
		for li, lr := range ph.Links {
			lctx := fmt.Sprintf("%s link %d", ctx, li)
			if err := lr.validate(lctx); err != nil {
				return err
			}
			if lr.From != nil {
				if err := checkNode(*lr.From, lctx+" from"); err != nil {
					return err
				}
			}
			if lr.To != nil {
				if err := checkNode(*lr.To, lctx+" to"); err != nil {
					return err
				}
			}
		}
		seen := map[int]int{}
		for gi, group := range ph.Partition {
			if len(group) == 0 {
				return fmt.Errorf("%s: empty partition group %d", ctx, gi)
			}
			for _, u := range group {
				if err := checkNode(u, fmt.Sprintf("%s partition group %d", ctx, gi)); err != nil {
					return err
				}
				if prev, dup := seen[u]; dup {
					return fmt.Errorf("%s: node %d in partition groups %d and %d", ctx, u, prev, gi)
				}
				seen[u] = gi
			}
		}
		for _, u := range ph.Crash {
			if err := checkNode(u, ctx+" crash"); err != nil {
				return err
			}
		}
	}
	return nil
}

// ParseScenario decodes a JSON scenario strictly (unknown fields are
// errors, catching typos like "dealy") and validates everything that does
// not depend on the network size.
func ParseScenario(data []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("netsim: bad scenario JSON: %w", err)
	}
	if err := s.Validate(0); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	return &s, nil
}

// LoadScenario reads and parses a JSON scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	s, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// DropScenario is uniform i.i.d. loss with probability p on every link for
// the whole run.
func DropScenario(p float64) *Scenario {
	return &Scenario{
		Name:   fmt.Sprintf("drop-%g", p),
		Phases: []Phase{{All: &Impairment{Loss: p}}},
	}
}

// compiledPhase is a Phase with partition groups and crash sets resolved
// to per-node lookups.
type compiledPhase struct {
	phase Phase
	group []int  // group id per node; nil when no partition
	down  []bool // crashed-per-node; nil when no crashes
}

// compiledScenario is the per-network compiled form of a Scenario.
type compiledScenario struct {
	phases    []compiledPhase
	anyCrash  bool
	lastRound int // max Until across phases (0 = open-ended phases exist)
}

func compileScenario(s *Scenario, n int) *compiledScenario {
	if s == nil || len(s.Phases) == 0 {
		return nil
	}
	cs := &compiledScenario{phases: make([]compiledPhase, len(s.Phases))}
	for i, ph := range s.Phases {
		cp := compiledPhase{phase: ph}
		if len(ph.Partition) > 0 {
			cp.group = make([]int, n)
			for u := range cp.group {
				cp.group[u] = len(ph.Partition) // implicit leftover group
			}
			for gi, group := range ph.Partition {
				for _, u := range group {
					cp.group[u] = gi
				}
			}
		}
		if len(ph.Crash) > 0 {
			cp.down = make([]bool, n)
			for _, u := range ph.Crash {
				cp.down[u] = true
			}
			cs.anyCrash = true
		}
		cs.phases[i] = cp
	}
	return cs
}

// impairmentAt resolves the effective impairment of the directed link
// from→to at the given round: the last matching rule (phase order, then
// rule order, All counting as a match-everything rule) wins whole.
func (cs *compiledScenario) impairmentAt(round, from, to int) Impairment {
	var imp Impairment
	for i := range cs.phases {
		ph := &cs.phases[i].phase
		if !ph.activeAt(round) {
			continue
		}
		if ph.All != nil {
			imp = *ph.All
		}
		for _, lr := range ph.Links {
			if lr.matches(from, to) {
				imp = lr.Impairment
			}
		}
	}
	return imp
}

// partitionedAt reports whether any active phase separates from and to.
func (cs *compiledScenario) partitionedAt(round, from, to int) bool {
	for i := range cs.phases {
		cp := &cs.phases[i]
		if cp.group == nil || !cp.phase.activeAt(round) {
			continue
		}
		if cp.group[from] != cp.group[to] {
			return true
		}
	}
	return false
}

// crashedAt reports whether node u is down at the given round.
func (cs *compiledScenario) crashedAt(u, round int) bool {
	if !cs.anyCrash {
		return false
	}
	for i := range cs.phases {
		cp := &cs.phases[i]
		if cp.down != nil && cp.down[u] && cp.phase.activeAt(round) {
			return true
		}
	}
	return false
}
