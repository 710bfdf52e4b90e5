package core

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the textual role-spec grammar behind the binaries' -roles
// flag and the root WithRoles option, mirroring eventsim's rate-spec split:
// parseRoleEntries / ValidateRoleSpec work without a population size (so
// flag validation runs before n is known), ParseRoleSpec resolves against n.
//
// The grammar, comma-separated:
//
//	role              default role for every unassigned node (at most once)
//	role=K            K nodes of the whole population take the role
//	role=P%           P percent of the whole population (rounded)
//	role=K:lo-hi      K nodes out of the inclusive id range lo..hi
//	role=P%:lo-hi     P percent of the range
//	role=K:u          single-node range form
//
// Quantified nodes are placed evenly across their range — a deterministic,
// seed-independent layout, so a run replays from (seed, roles) alone. Later
// segments win on overlap; a role name may appear at most once as a
// quantified segment. Examples: "honest,byzantine=5%",
// "byzantine=10:0-99,eavesdropper=8", "silent,selfish=25%:0-499".
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

// roleNames is the built-in role registry shared by the undirected and
// directed resolvers; the bool marks roles with an undirected process only.
var roleNames = map[string]bool{
	"honest":       false,
	"byzantine":    false,
	"selfish":      true, // no directed counterpart
	"silent":       false,
	"eavesdropper": false,
}

// KnownRole reports whether name is a built-in role usable in a role spec.
func KnownRole(name string) bool {
	_, ok := roleNames[name]
	return ok
}

// parseRoleEntries parses the grammar without resolving quantities or
// ranges against a population size.
func parseRoleEntries(spec string) ([]roleEntry, error) {
	var entries []roleEntry
	haveDefault := false
	seen := make(map[string]bool)
	for _, seg := range strings.Split(spec, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("roles: empty segment in %q", spec)
		}
		name, rest, quantified := strings.Cut(seg, "=")
		name = strings.TrimSpace(name)
		if !KnownRole(name) {
			return nil, fmt.Errorf("roles: unknown role %q in segment %q", name, seg)
		}
		if !quantified {
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
		e := roleEntry{name: name, count: -1, lo: -1, hi: -1}
		quantStr, rangeStr, haveRange := strings.Cut(rest, ":")
		quantStr = strings.TrimSpace(quantStr)
		if pctStr, isPct := strings.CutSuffix(quantStr, "%"); isPct {
			pct, err := strconv.ParseFloat(strings.TrimSpace(pctStr), 64)
			if err != nil || !(pct >= 0 && pct <= 100) { // rejects NaN too
				return nil, fmt.Errorf("roles: segment %q has an invalid percentage %q (want 0-100)", seg, quantStr)
			}
			e.pct = pct
		} else {
			count, err := strconv.Atoi(quantStr)
			if err != nil || count < 0 {
				return nil, fmt.Errorf("roles: segment %q has an invalid count %q", seg, quantStr)
			}
			e.count = count
		}
		if haveRange {
			loStr, hiStr, isRange := strings.Cut(strings.TrimSpace(rangeStr), "-")
			if !isRange {
				hiStr = loStr
			}
			lo, err := strconv.Atoi(strings.TrimSpace(loStr))
			if err != nil {
				return nil, fmt.Errorf("roles: segment %q has a malformed node range %q", seg, rangeStr)
			}
			hi, err := strconv.Atoi(strings.TrimSpace(hiStr))
			if err != nil {
				return nil, fmt.Errorf("roles: segment %q has a malformed node range %q", seg, rangeStr)
			}
			if lo < 0 || hi < lo {
				return nil, fmt.Errorf("roles: segment %q has an invalid node range %d-%d", seg, lo, hi)
			}
			e.lo, e.hi = lo, hi
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

// resolveQuantity turns a segment's count-or-percent into a node count over
// a range of span nodes.
func resolveQuantity(e roleEntry, span int) (int, error) {
	k := e.count
	if k == -1 {
		k = int(e.pct*float64(span)/100 + 0.5)
	}
	if k > span {
		return 0, fmt.Errorf("roles: role %q wants %d nodes out of a %d-node range", e.name, k, span)
	}
	return k, nil
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
		k, err := resolveQuantity(e, hi-lo+1)
		if err != nil {
			return nil, err
		}
		pop.DefineRole(e.name, proc)
		if k > 0 {
			pop.AssignRoleNodes(e.name, spreadNodes(lo, hi, k)...)
		}
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
