package eventsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/gen"
	"gossipdisc/internal/rng"
)

func TestRateMapOps(t *testing.T) {
	m := NewRateMap(10, 0.5)
	if m.N() != 10 || m.Rate(3) != 0.5 || m.TotalRate() != 5 {
		t.Fatalf("fresh map: n=%d rate(3)=%v total=%v", m.N(), m.Rate(3), m.TotalRate())
	}

	m.DefineClass("fast", 4)
	m.AssignClass("fast", 0, 4)
	// TotalRate is a running sum: every mutator must keep it.
	if m.Rate(0) != 4 || m.Rate(3) != 4 || m.Rate(4) != 0.5 || m.ClassRate("fast") != 4 || m.TotalRate() != 4*4+6*0.5 {
		t.Fatalf("after AssignClass: rates %v %v %v, class rate %v, total %v (want 19)",
			m.Rate(0), m.Rate(3), m.Rate(4), m.ClassRate("fast"), m.TotalRate())
	}

	// A per-node override detaches the node from its class...
	m.SetNodeRate(2, 9)
	if m.Rate(2) != 9 || m.TotalRate() != 3*4+9+6*0.5 {
		t.Fatalf("override: rate %v, total %v", m.Rate(2), m.TotalRate())
	}
	// ...so retuning the class changes exactly the remaining members.
	members := m.SetClassRate("fast", 8)
	if len(members) != 3 {
		t.Fatalf("SetClassRate members = %v, want the 3 non-overridden fast nodes", members)
	}
	for _, u := range members {
		if u == 2 || m.Rate(u) != 8 {
			t.Fatalf("member %d at rate %v after SetClassRate", u, m.Rate(u))
		}
	}
	if got := m.Classes(); m.Rate(2) != 9 || m.TotalRate() != 3*8+9+6*0.5 || len(got) != 1 || got[0] != "fast" {
		t.Fatalf("after SetClassRate: override %v, total %v, classes %v", m.Rate(2), m.TotalRate(), got)
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

func TestRateMapPanics(t *testing.T) {
	mustPanic := func(name string, f func()) { t.Helper(); mustPanic(t, name, f) }
	mustPanic("negative n", func() { NewRateMap(-1, 1) })
	mustPanic("negative default rate", func() { NewRateMap(4, -1) })
	m := NewRateMap(4, 1)
	m.DefineClass("a", 2)
	mustPanic("duplicate class", func() { m.DefineClass("a", 3) })
	mustPanic("empty class name", func() { m.DefineClass("", 1) })
	mustPanic("unknown class assign", func() { m.AssignClass("nope", 0, 2) })
	mustPanic("out-of-range assign", func() { m.AssignClass("a", 2, 5) })
	mustPanic("unknown class rate", func() { m.ClassRate("nope") })
	mustPanic("unknown class retune", func() { m.SetClassRate("nope", 1) })
	mustPanic("negative node rate", func() { m.SetNodeRate(0, -2) })
	// Rates above 2^32 could sum to +Inf over the population.
	mustPanic("huge default rate", func() { NewRateMap(4, 1e308) })
	mustPanic("huge class rate", func() { m.DefineClass("b", math.Inf(1)) })
	mustPanic("node rate above 2^32", func() { m.SetNodeRate(0, maxRate*2) })
	mustPanic("NaN class retune", func() { m.SetClassRate("a", math.NaN()) })
	m.SetNodeRate(0, maxRate) // the bound itself is a valid rate

	// A node outside the map panics naming the operation and the range, on
	// the map and through a session, before anything is mutated.
	setters := []struct {
		name string
		set  func(u int, rate float64)
	}{
		{"RateMap", m.SetNodeRate},
		{"Session", New(gen.Cycle(4), core.Push{}, rng.New(1), Config{}).SetNodeRate},
	}
	for _, c := range setters {
		for _, u := range []int{-1, 4} {
			want := fmt.Sprintf("SetNodeRate node %d outside [0, 4)", u)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "eventsim: ") || !strings.Contains(msg, want) {
						t.Fatalf("%s.SetNodeRate(%d, 1): panic %q, want an eventsim panic containing %q", c.name, u, msg, want)
					}
				}()
				c.set(u, 1)
			}()
		}
	}
	if total := m.TotalRate(); total != maxRate+3 {
		t.Fatalf("TotalRate %v after rejected SetNodeRate calls, want %v", total, maxRate+3.0)
	}
}

func TestParseRateSpec(t *testing.T) {
	type check func(t *testing.T, m *RateMap)
	rates := func(want ...float64) check {
		return func(t *testing.T, m *RateMap) {
			t.Helper()
			for u, w := range want {
				if m.Rate(u) != w {
					t.Fatalf("node %d at rate %v, want %v (map %v)", u, m.Rate(u), w, want)
				}
			}
		}
	}
	cases := []struct {
		name  string
		spec  string
		n     int
		check check
	}{
		{"empty means uniform 1", "", 4, rates(1, 1, 1, 1)},
		{"bare default", "2.5", 3, rates(2.5, 2.5, 2.5)},
		{"one class", "fast=8:0-1", 4, rates(8, 8, 1, 1)},
		{"single-node range", "hub=4:2", 4, rates(1, 1, 4, 1)},
		{"default plus classes", "0.5,fast=8:0-1,park=0:3", 5, rates(8, 8, 0.5, 0, 0.5)},
		{"later assignment wins", "a=2:0-3,b=5:2-3", 4, rates(2, 2, 5, 5)},
		{"whitespace tolerated", " 2 , fast = 4 : 0 - 1 ", 3, rates(4, 4, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateRateSpec(tc.spec); err != nil {
				t.Fatalf("ValidateRateSpec(%q) = %v", tc.spec, err)
			}
			m, err := ParseRateSpec(tc.spec, tc.n)
			if err != nil {
				t.Fatalf("ParseRateSpec(%q, %d) = %v", tc.spec, tc.n, err)
			}
			if m.N() != tc.n {
				t.Fatalf("map covers %d nodes, want %d", m.N(), tc.n)
			}
			tc.check(t, m)
		})
	}
}

func TestParseRateSpecErrors(t *testing.T) {
	syntax := []struct {
		name, spec, wantSub string
	}{
		{"empty segment", "1,,fast=2:0-1", "empty segment"},
		{"garbage", "fast", "neither a default rate"},
		{"two defaults", "1,2", "more than one default"},
		{"negative rate", "-1", "rate -1"},
		{"nan-ish rate", "fast=x:0-1", "malformed rate"},
		{"missing range", "fast=2", "missing its :lo-hi"},
		{"empty name", "=2:0-1", "empty class name"},
		{"bad range", "fast=2:b-c", "malformed node range"},
		{"inverted range", "fast=2:5-3", "invalid node range"},
		{"negative lo", "fast=2:-1-3", "malformed node range"},
		{"rates summing to infinity", "x=1e308:0-3,y=1e308:4-7", "want a rate in [0, 2^32]"},
		{"default above 2^32", "4294967297", "want a rate in [0, 2^32]"},
		{"infinite rate", "fast=Inf:0-1", "want a rate in [0, 2^32]"},
	}
	for _, tc := range syntax {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateRateSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ValidateRateSpec(%q) = %v, want error containing %q", tc.spec, err, tc.wantSub)
			}
			if _, err := ParseRateSpec(tc.spec, 8); err == nil {
				t.Fatalf("ParseRateSpec(%q) accepted a syntactically invalid spec", tc.spec)
			}
		})
	}

	// Resolution errors need n, so only ParseRateSpec rejects them.
	resolution := []struct {
		name, spec, wantSub string
		n                   int
	}{
		{"range past n", "fast=2:0-8", "outside the 8-node population", 8},
		{"duplicate class", "a=2:0-1,a=2:2-3", "defined twice", 8},
	}
	for _, tc := range resolution {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateRateSpec(tc.spec); err != nil {
				t.Fatalf("ValidateRateSpec(%q) = %v, want nil (resolution errors need n)", tc.spec, err)
			}
			if _, err := ParseRateSpec(tc.spec, tc.n); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ParseRateSpec(%q, %d) = %v, want error containing %q", tc.spec, tc.n, err, tc.wantSub)
			}
		})
	}
}
