package eventsim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gossipdisc/internal/classmap"
)

// A RateMap assigns every node an activation rate: node u's clock fires as
// a Poisson process with intensity Rate(u) (exponential inter-activation
// gaps with mean 1/Rate(u)). Rates are organized as named *classes* — fast,
// slow, mobile — plus per-node overrides, so heterogeneous populations
// coexist in one run and a whole class can be retuned with one call. A rate
// of zero parks the node: it never activates (but still accepts the
// connections other nodes propose).
//
// A RateMap is mutable between session steps: Session.SetNodeRate and
// Session.SetClassRate mutate the session's map and move the affected nodes
// between the sampler's rate groups. Mutating a map shared with a running
// session directly (not through the session methods) leaves each node in
// its old group — a parked node stays parked, a raised rate is capped at
// the old group's bound, and a lowered one fires at that bound until the
// node is refiled, unless the group holds a member filed below its bound —
// so go through the session. The table is a
// named field, not embedded: its mutators would bypass rate validation and
// the running total.
type RateMap struct {
	table classmap.Table[float64]
	total float64 // Σ rates, kept by every mutator
}

// maxRate bounds every rate, so that the sum over any number of int32 node
// ids, and the sampler's bound below twice that sum, stay finite. The
// largest rate in the tree is 800.
const maxRate = 1 << 32

// NewRateMap returns a map assigning every one of the n nodes the default
// rate def. It panics on a negative n or an invalid rate (negative, NaN or
// above 2^32 — zero is allowed and means "never activates").
func NewRateMap(n int, def float64) *RateMap {
	m := &RateMap{table: classmap.New("eventsim", "RateMap", n, def)}
	m.validRate("NewRateMap", def)
	m.resum()
	return m
}

// Uniform returns the homogeneous rate-1 map on n nodes — the population
// under which the event runtime reproduces sim.RunAsync's activations
// exactly.
func Uniform(n int) *RateMap { return NewRateMap(n, 1) }

func (m *RateMap) validRate(op string, rate float64) {
	if !inRange(rate) {
		m.table.Panicf(op, "with rate %v (want a rate in [0, 2^32])", rate)
	}
}

// inRange reports whether rate is in [0, maxRate]; NaN is not.
func inRange(rate float64) bool { return rate >= 0 && rate <= maxRate }

// N returns the number of nodes the map covers.
func (m *RateMap) N() int { return len(m.table.Values()) }

// Rate returns node u's current activation rate. O(1).
func (m *RateMap) Rate(u int) float64 { return m.table.Values()[u] }

// TotalRate returns the sum of all node rates — the expected number of
// activations per unit of simulated time. O(1): AssignClass and
// SetClassRate re-add it from scratch and SetNodeRate adjusts it by the
// difference, so after node retunes it can differ from a fresh summation in
// the last bits.
func (m *RateMap) TotalRate() float64 { return m.total }

// resum re-adds the total from scratch, in node order.
func (m *RateMap) resum() {
	m.total = 0
	for _, r := range m.table.Values() {
		m.total += r
	}
}

// DefineClass registers a named rate class. It panics if the rate is
// invalid or the name empty or already defined.
func (m *RateMap) DefineClass(name string, rate float64) {
	m.validRate("DefineClass", rate)
	m.table.Define("DefineClass", name, rate)
}

// AssignClass puts nodes [lo, hi) into the named class (last assignment
// wins). It panics on an unknown class or an out-of-range interval.
func (m *RateMap) AssignClass(name string, lo, hi int) {
	m.table.Assign("AssignClass", name, lo, hi)
	m.resum()
}

// SetNodeRate gives node u a per-node override, detaching it from its class.
// It panics on an invalid rate or a node outside the map.
func (m *RateMap) SetNodeRate(u int, rate float64) {
	m.validRate("SetNodeRate", rate)
	old := m.table.Override("SetNodeRate", u, rate)
	m.total += rate - old
}

// ClassRate returns the named class's rate. It panics on an unknown class.
func (m *RateMap) ClassRate(name string) float64 { return m.table.ClassValue("ClassRate", name) }

// SetClassRate retunes the named class and returns the nodes whose rate
// changed (its current members), so a session can reschedule exactly those
// clocks. O(n).
func (m *RateMap) SetClassRate(name string, rate float64) []int {
	m.validRate("SetClassRate", rate)
	members := m.table.SetClass("SetClassRate", name, rate)
	m.resum()
	return members
}

// Classes returns the defined class names in definition order.
func (m *RateMap) Classes() []string { return m.table.Names() }

// rateEntry is one parsed -rates spec segment.
type rateEntry struct {
	name   string // "" for the bare default-rate entry
	rate   float64
	lo, hi int // inclusive node range; -1, -1 for the default entry
}

// parseRateEntries parses the textual rate-spec grammar shared by both
// binaries without resolving node ranges against a population size, so flag
// validation can run before n is known. Over classmap's segment grammar,
// comma-separated:
//
//	R             default rate for every unassigned node (at most once)
//	name=R:lo-hi  define class name with rate R, assign nodes lo..hi (incl.)
//	name=R:u      single-node form of the above
//
// Rates are decimals in [0, 2^32] (0 = never activates). Later
// assignments win on overlap. Examples: "1", "fast=8:0-63",
// "0.5,fast=8:0-15,mobile=0:16-31".
func parseRateEntries(spec string) ([]rateEntry, error) {
	var entries []rateEntry
	haveDefault := false
	for seg, err := range classmap.Segments("rates", spec) {
		if err != nil {
			return nil, err
		}
		e := rateEntry{name: seg.Head, lo: -1, hi: -1}
		rateStr := seg.Value
		if !seg.HasValue {
			e.name, rateStr = "", seg.Text
		} else if seg.Head == "" {
			return nil, fmt.Errorf("rates: segment %q has an empty class name", seg.Text)
		} else if !seg.HasNodes {
			return nil, fmt.Errorf("rates: segment %q is missing its :lo-hi node range", seg.Text)
		}
		e.rate, err = strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		switch {
		case err != nil && e.name == "":
			return nil, fmt.Errorf("rates: %q is neither a default rate nor a name=rate:range segment", seg.Text)
		case err != nil:
			return nil, fmt.Errorf("rates: segment %q has a malformed rate %q", seg.Text, rateStr)
		case !inRange(e.rate):
			return nil, fmt.Errorf("rates: segment %q has rate %v (want a rate in [0, 2^32])", seg.Text, e.rate)
		}
		if e.name == "" {
			if haveDefault {
				return nil, fmt.Errorf("rates: more than one default-rate segment in %q", spec)
			}
			haveDefault = true
		} else if e.lo, e.hi, err = seg.Range(); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// ValidateRateSpec checks a -rates flag value for grammatical sense without
// a population size (node ranges are bounds-checked by ParseRateSpec once n
// is known). The empty spec is valid and means uniform rate 1.
func ValidateRateSpec(spec string) error {
	if spec == "" {
		return nil
	}
	_, err := parseRateEntries(spec)
	return err
}

// ParseRateSpec resolves a -rates flag value against a population of n
// nodes. The empty spec yields Uniform(n). Class names must be unique; a
// class defined by one segment covers exactly that segment's range (assign
// further ranges by repeating the name with the same rate is rejected as a
// duplicate — use two class names). Ranges are inclusive and must fall in
// [0, n).
func ParseRateSpec(spec string, n int) (*RateMap, error) {
	if spec == "" {
		return Uniform(n), nil
	}
	entries, err := parseRateEntries(spec)
	if err != nil {
		return nil, err
	}
	def := 1.0
	for _, e := range entries {
		if e.name == "" {
			def = e.rate
		}
	}
	m := NewRateMap(n, def)
	for _, e := range entries {
		if e.name == "" {
			continue
		}
		if slices.Contains(m.Classes(), e.name) {
			return nil, fmt.Errorf("rates: class %q defined twice", e.name)
		}
		if e.hi >= n {
			return nil, fmt.Errorf("rates: class %q range %d-%d outside the %d-node population", e.name, e.lo, e.hi, n)
		}
		m.DefineClass(e.name, e.rate)
		m.AssignClass(e.name, e.lo, e.hi+1)
	}
	return m, nil
}
