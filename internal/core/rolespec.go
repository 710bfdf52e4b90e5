package core

import (
	"fmt"
	"strconv"
	"strings"

	"gossipdisc/internal/classmap"
)

// This file is the textual role-spec grammar behind the binaries' -roles
// flag and the root WithRoles option, mirroring eventsim's rate-spec split:
// parseRoleEntries / ValidateRoleSpec work without a population size (so
// flag validation runs before n is known), ParseRoleSpec resolves against n.
//
// The grammar, over classmap's comma-separated segments:
//
//	role        default role for every unassigned node (at most once)
//	role=K      K nodes take the role
//	role=P%     P percent of the nodes (rounded)
//
// A quantity counts over the whole population, or over the inclusive id
// range of a ":lo-hi" (or single-node ":u") suffix. Quantified nodes are
// placed evenly across their range — a deterministic, seed-independent
// layout, so a run replays from (seed, roles) alone. Later segments win on
// overlap; a role name may appear at most once as a quantified segment.
// Examples: "honest,byzantine=5%", "byzantine=10:0-99,eavesdropper=8",
// "silent,selfish=25%:0-499".
//
// Built-in roles (ParseRoleSpec resolves them against a base process):
//
//	honest        the base process unchanged
//	byzantine     Byzantine{Target: -1} — funnels introductions toward itself
//	selfish       Selfish{} — pulls, never introduces (undirected only)
//	silent        Silent{} — never initiates
//	eavesdropper  the base process; membership marks the observer coalition
//	              (Population.Nodes("eavesdropper") feeds analyze.NewAnonymity)

// roleEntry is one parsed -roles spec segment.
type roleEntry struct {
	name   string
	def    bool    // bare default-role segment
	count  int     // absolute count, -1 for the percent form
	pct    float64 // valid iff count == -1
	lo, hi int     // inclusive node range; -1, -1 = whole population
}

// KnownRole reports whether name is a built-in role usable in a role spec.
func KnownRole(name string) bool {
	_, ok := roleProcess(name, nil)
	return ok
}

// parseRoleEntries parses the grammar without resolving quantities or
// ranges against a population size.
func parseRoleEntries(spec string) ([]roleEntry, error) {
	var entries []roleEntry
	haveDefault := false
	seen := make(map[string]bool)
	for seg, err := range classmap.Segments("roles", spec) {
		if err != nil {
			return nil, err
		}
		name := seg.Head
		if !KnownRole(name) {
			return nil, fmt.Errorf("roles: unknown role %q in segment %q", name, seg.Text)
		}
		if !seg.HasValue {
			if haveDefault {
				return nil, fmt.Errorf("roles: more than one default-role segment in %q", spec)
			}
			haveDefault = true
			entries = append(entries, roleEntry{name: name, def: true, lo: -1, hi: -1})
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("roles: role %q assigned twice", name)
		}
		seen[name] = true
		e := roleEntry{name: name, count: -1}
		quantStr := strings.TrimSpace(seg.Value)
		if pctStr, isPct := strings.CutSuffix(quantStr, "%"); isPct {
			pct, err := strconv.ParseFloat(strings.TrimSpace(pctStr), 64)
			if err != nil || !(pct >= 0 && pct <= 100) { // rejects NaN too
				return nil, fmt.Errorf("roles: segment %q has an invalid percentage %q (want 0-100)", seg.Text, quantStr)
			}
			e.pct = pct
		} else {
			count, err := strconv.Atoi(quantStr)
			if err != nil || count < 0 {
				return nil, fmt.Errorf("roles: segment %q has an invalid count %q", seg.Text, quantStr)
			}
			e.count = count
		}
		if e.lo, e.hi, err = seg.Range(); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// ValidateRoleSpec checks a -roles flag value for grammatical sense without
// a population size (quantities and ranges are resolved by ParseRoleSpec
// once n is known). The empty spec is valid and means everyone honest.
func ValidateRoleSpec(spec string) error {
	if spec == "" {
		return nil
	}
	_, err := parseRoleEntries(spec)
	return err
}

// spreadNodes places k nodes evenly over the inclusive id range [lo, hi] —
// the deterministic, seed-independent layout quantified role segments use.
// Requires k <= hi-lo+1; the returned ids are strictly increasing.
func spreadNodes(lo, hi, k int) []int {
	span := hi - lo + 1
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, lo+i*span/k)
	}
	return out
}

// ParseRoleSpec resolves a -roles flag value against a population of n
// nodes over the base (honest) process. The empty spec yields the uniform
// population on base; a nil base defaults to Push. Ranges must fall inside
// [0, n); quantities may not exceed their range.
func ParseRoleSpec(spec string, n int, base Process) (*Population, error) {
	if base == nil {
		base = Push{}
	}
	return parseRoleSpec("Population", "undirected", spec, n, base, roleProcess)
}

// ParseDirectedRoleSpec is ParseRoleSpec for directed runs: same grammar,
// resolved against the directed role registry (selfish has no directed
// counterpart and is rejected). A nil base defaults to DirectedTwoHop.
func ParseDirectedRoleSpec(spec string, n int, base DirectedProcess) (*DirectedPopulation, error) {
	if base == nil {
		base = DirectedTwoHop{}
	}
	return parseRoleSpec("DirectedPopulation", "directed", spec, n, base, directedRoleProcess)
}

// parseRoleSpec is the resolver under both: lookup is the substrate's
// role-name → process registry, substrate the word its errors use.
func parseRoleSpec[G any](kind, substrate, spec string, n int, base ProcessOn[G],
	lookup func(name string, base ProcessOn[G]) (ProcessOn[G], bool)) (*PopulationOn[G], error) {
	var entries []roleEntry
	if spec != "" {
		var err error
		if entries, err = parseRoleEntries(spec); err != nil {
			return nil, err
		}
	}
	noProcess := func(name string) error {
		return fmt.Errorf("roles: role %q has no %s process", name, substrate)
	}
	def := base
	for _, e := range entries {
		if e.def {
			var ok bool
			if def, ok = lookup(e.name, base); !ok {
				return nil, noProcess(e.name)
			}
		}
	}
	pop := newPopulation(kind, n, def)
	for _, e := range entries {
		if e.def {
			continue
		}
		proc, ok := lookup(e.name, base)
		if !ok {
			return nil, noProcess(e.name)
		}
		lo, hi := e.lo, e.hi
		if lo == -1 {
			lo, hi = 0, n-1
		}
		if hi >= n {
			return nil, fmt.Errorf("roles: role %q range %d-%d outside the %d-node population", e.name, lo, hi, n)
		}
		span, k := hi-lo+1, e.count
		if k == -1 {
			k = int(e.pct*float64(span)/100 + 0.5)
		}
		if k > span {
			return nil, fmt.Errorf("roles: role %q wants %d nodes out of a %d-node range", e.name, k, span)
		}
		pop.DefineRole(e.name, proc)
		pop.AssignRoleNodes(e.name, spreadNodes(lo, hi, k)...)
	}
	return pop, nil
}

// roleProcess resolves a built-in role name to its undirected process over
// the base (honest) process.
func roleProcess(name string, base Process) (Process, bool) {
	switch name {
	case "honest", "eavesdropper":
		return base, true
	case "byzantine":
		return Byzantine{Target: -1}, true
	case "selfish":
		return Selfish{}, true
	case "silent":
		return Silent{}, true
	}
	return nil, false
}

// directedRoleProcess resolves a built-in role name to its directed process.
func directedRoleProcess(name string, base DirectedProcess) (DirectedProcess, bool) {
	switch name {
	case "honest", "eavesdropper":
		return base, true
	case "byzantine":
		return ByzantineDirected{Target: -1}, true
	case "silent":
		return SilentDirected{}, true
	}
	return nil, false
}
