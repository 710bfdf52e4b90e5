package eventsim

import (
	"fmt"
	"strconv"
	"strings"
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
// its old group — a parked node stays parked, and a raised rate is capped
// at the old group's bound — so go through the session.
type RateMap struct {
	rates     []float64 // effective per-node rate
	classOf   []int32   // node -> class index, -1 = default rate or override
	classes   []string
	classRate []float64
	byName    map[string]int
	def       float64
	total     float64 // Σ rates, kept by every mutator
}

// maxRate bounds every rate, so that the sum over any number of int32 node
// ids, and the sampler's bound below twice that sum, stay finite. The
// largest rate in the tree is 800.
const maxRate = 1 << 32

// NewRateMap returns a map assigning every one of the n nodes the default
// rate def. It panics on a negative n or an invalid rate (negative, NaN or
// above 2^32 — zero is allowed and means "never activates").
func NewRateMap(n int, def float64) *RateMap {
	if n < 0 {
		panic(fmt.Sprintf("eventsim: NewRateMap with negative n %d", n))
	}
	validRate(def, "default")
	m := &RateMap{
		rates:   make([]float64, n),
		classOf: make([]int32, n),
		byName:  make(map[string]int),
		def:     def,
	}
	for i := range m.rates {
		m.rates[i] = def
		m.classOf[i] = -1
	}
	m.resum()
	return m
}

// Uniform returns the homogeneous rate-1 map on n nodes — the population
// under which the event runtime reproduces the tick scheduler's activations
// exactly.
func Uniform(n int) *RateMap { return NewRateMap(n, 1) }

func validRate(rate float64, what string) {
	if !inRange(rate) {
		panic(fmt.Sprintf("eventsim: invalid %s rate %v (want a rate in [0, 2^32])", what, rate))
	}
}

// inRange reports whether rate is in [0, maxRate]; NaN is not.
func inRange(rate float64) bool { return rate >= 0 && rate <= maxRate }

// N returns the number of nodes the map covers.
func (m *RateMap) N() int { return len(m.rates) }

// Rate returns node u's current activation rate. O(1).
func (m *RateMap) Rate(u int) float64 { return m.rates[u] }

// TotalRate returns the sum of all node rates — the expected number of
// activations per unit of simulated time. O(1): AssignClass and
// SetClassRate re-add it from scratch and SetNodeRate adjusts it by the
// difference, so after node retunes it can differ from a fresh summation in
// the last bits.
func (m *RateMap) TotalRate() float64 { return m.total }

// resum re-adds the total from scratch, in node order.
func (m *RateMap) resum() {
	m.total = 0
	for _, r := range m.rates {
		m.total += r
	}
}

// DefineClass registers a named rate class. It panics if the name is empty,
// already defined, or the rate invalid.
func (m *RateMap) DefineClass(name string, rate float64) {
	if name == "" {
		panic("eventsim: DefineClass with empty name")
	}
	if _, dup := m.byName[name]; dup {
		panic(fmt.Sprintf("eventsim: class %q already defined", name))
	}
	validRate(rate, "class "+name)
	m.byName[name] = len(m.classes)
	m.classes = append(m.classes, name)
	m.classRate = append(m.classRate, rate)
}

// AssignClass puts nodes [lo, hi) into the named class (last assignment
// wins). It panics on an unknown class or an out-of-range interval.
func (m *RateMap) AssignClass(name string, lo, hi int) {
	c, ok := m.byName[name]
	if !ok {
		panic(fmt.Sprintf("eventsim: AssignClass to unknown class %q", name))
	}
	if lo < 0 || hi > len(m.rates) || lo > hi {
		panic(fmt.Sprintf("eventsim: AssignClass range [%d, %d) outside [0, %d)", lo, hi, len(m.rates)))
	}
	for u := lo; u < hi; u++ {
		m.classOf[u] = int32(c)
		m.rates[u] = m.classRate[c]
	}
	m.resum()
}

// SetNodeRate gives node u a per-node override, detaching it from its class.
func (m *RateMap) SetNodeRate(u int, rate float64) {
	validRate(rate, fmt.Sprintf("node %d", u))
	m.classOf[u] = -1
	m.total += rate - m.rates[u]
	m.rates[u] = rate
}

// ClassRate returns the named class's rate. It panics on an unknown class.
func (m *RateMap) ClassRate(name string) float64 {
	c, ok := m.byName[name]
	if !ok {
		panic(fmt.Sprintf("eventsim: ClassRate of unknown class %q", name))
	}
	return m.classRate[c]
}

// SetClassRate retunes the named class and returns the nodes whose rate
// changed (its current members), so a session can reschedule exactly those
// clocks. O(n).
func (m *RateMap) SetClassRate(name string, rate float64) []int {
	c, ok := m.byName[name]
	if !ok {
		panic(fmt.Sprintf("eventsim: SetClassRate of unknown class %q", name))
	}
	validRate(rate, "class "+name)
	m.classRate[c] = rate
	var members []int
	for u := range m.classOf {
		if m.classOf[u] == int32(c) {
			m.rates[u] = rate
			members = append(members, u)
		}
	}
	m.resum()
	return members
}

// Classes returns the defined class names in definition order.
func (m *RateMap) Classes() []string { return append([]string(nil), m.classes...) }

// rateEntry is one parsed -rates spec segment.
type rateEntry struct {
	name   string // "" for the bare default-rate entry
	rate   float64
	lo, hi int // inclusive node range; -1, -1 for the default entry
}

// parseRateEntries parses the textual rate-spec grammar shared by both
// binaries without resolving node ranges against a population size, so flag
// validation can run before n is known. The grammar, comma-separated:
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
	for _, seg := range strings.Split(spec, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("rates: empty segment in %q", spec)
		}
		name, rest, isClass := strings.Cut(seg, "=")
		if !isClass {
			rate, err := strconv.ParseFloat(seg, 64)
			if err != nil {
				return nil, fmt.Errorf("rates: %q is neither a default rate nor a name=rate:range segment", seg)
			}
			if err := checkRate(rate, seg); err != nil {
				return nil, err
			}
			if haveDefault {
				return nil, fmt.Errorf("rates: more than one default-rate segment in %q", spec)
			}
			haveDefault = true
			entries = append(entries, rateEntry{rate: rate, lo: -1, hi: -1})
			continue
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("rates: segment %q has an empty class name", seg)
		}
		rateStr, rangeStr, haveRange := strings.Cut(rest, ":")
		if !haveRange {
			return nil, fmt.Errorf("rates: segment %q is missing its :lo-hi node range", seg)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil {
			return nil, fmt.Errorf("rates: segment %q has a malformed rate %q", seg, rateStr)
		}
		if err := checkRate(rate, seg); err != nil {
			return nil, err
		}
		loStr, hiStr, isRange := strings.Cut(strings.TrimSpace(rangeStr), "-")
		if !isRange {
			hiStr = loStr
		}
		lo, err := strconv.Atoi(strings.TrimSpace(loStr))
		if err != nil {
			return nil, fmt.Errorf("rates: segment %q has a malformed node range %q", seg, rangeStr)
		}
		hi, err := strconv.Atoi(strings.TrimSpace(hiStr))
		if err != nil {
			return nil, fmt.Errorf("rates: segment %q has a malformed node range %q", seg, rangeStr)
		}
		if lo < 0 || hi < lo {
			return nil, fmt.Errorf("rates: segment %q has an invalid node range %d-%d", seg, lo, hi)
		}
		entries = append(entries, rateEntry{name: name, rate: rate, lo: lo, hi: hi})
	}
	return entries, nil
}

func checkRate(rate float64, seg string) error {
	if !inRange(rate) {
		return fmt.Errorf("rates: segment %q has rate %v (want a rate in [0, 2^32])", seg, rate)
	}
	return nil
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
		if _, dup := m.byName[e.name]; dup {
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
