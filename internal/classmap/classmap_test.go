package classmap

import (
	"fmt"
	"slices"
	"testing"
)

// panicText runs f and returns the message it panicked with ("" if none).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func newRates(n int) Table[float64] {
	t := New("eventsim", "RateMap", n, 1.0)
	t.Define("DefineClass", "fast", 4)
	return t
}

func TestClassOfOutsideTable(t *testing.T) {
	tb := newRates(4)
	tb.Assign("AssignClass", "fast", 0, 4)
	for _, u := range []int{-1, 4} {
		if got := tb.ClassOf(u); got != "" {
			t.Errorf("ClassOf(%d) = %q, want \"\"", u, got)
		}
	}
	if got := tb.ClassOf(3); got != "fast" {
		t.Errorf("ClassOf(3) = %q, want \"fast\"", got)
	}
}

func TestTablePanics(t *testing.T) {
	tb := newRates(4)
	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"assign past n", func() { tb.Assign("AssignClass", "fast", 2, 5) },
			"eventsim: RateMap: AssignClass range [2, 5) outside [0, 4)"},
		{"assign inverted", func() { tb.Assign("AssignClass", "fast", 3, 1) },
			"eventsim: RateMap: AssignClass range [3, 1) outside [0, 4)"},
		{"define empty", func() { tb.Define("DefineClass", "", 2) },
			"eventsim: RateMap: DefineClass with empty name"},
		{"define duplicate", func() { tb.Define("DefineClass", "fast", 2) },
			`eventsim: RateMap: DefineClass of class "fast": already defined`},
		{"unknown class", func() { tb.Assign("AssignClass", "slow", 0, 1) },
			`eventsim: RateMap: AssignClass of unknown class "slow"`},
		{"override -1", func() { tb.Override("SetNodeRate", -1, 2) },
			"eventsim: RateMap: SetNodeRate node -1 outside [0, 4)"},
		{"negative n", func() { New("core", "Population", -1, "push") },
			"core: Population: NewPopulation with negative n -1"},
	} {
		if got := panicText(tc.f); got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestOverrideResetCensus(t *testing.T) {
	tb := newRates(6)
	tb.Assign("AssignClass", "fast", 0, 3)
	if old := tb.Override("SetNodeRate", 1, 7); old != 4 {
		t.Errorf("Override of a class member returned %v, want its class value 4", old)
	}
	if old := tb.Override("SetNodeRate", 5, 2); old != 1 {
		t.Errorf("Override of a default node returned %v, want the default 1", old)
	}
	if old := tb.Override("SetNodeRate", 5, 3); old != 2 {
		t.Errorf("second Override returned %v, want the first override 2", old)
	}
	counts, overrides := tb.Census()
	if !slices.Equal(counts, []int{2}) || overrides != 2 {
		t.Errorf("Census = %v, %d overrides; want [2], 2", counts, overrides)
	}
	if got := tb.Values(); !slices.Equal(got, []float64{4, 7, 4, 1, 1, 3}) {
		t.Errorf("Values = %v", got)
	}
	for u := range 6 {
		tb.Reset("ResetNode", u)
	}
	if !tb.Uniform() {
		t.Error("Uniform() = false after resetting every node")
	}
	if got := tb.Values(); !slices.Equal(got, []float64{1, 1, 1, 1, 1, 1}) {
		t.Errorf("Values after Reset = %v, want all 1", got)
	}
}

func TestSetClassReturnsMembersAscending(t *testing.T) {
	tb := newRates(8)
	tb.AssignNodes("AssignNodes", "fast", 6, 1, 4)
	members := tb.SetClass("SetClassRate", "fast", 9)
	if !slices.Equal(members, []int{1, 4, 6}) {
		t.Errorf("SetClass members = %v, want [1 4 6]", members)
	}
	if got := tb.ClassValue("ClassRate", "fast"); got != 9 {
		t.Errorf("ClassValue = %v, want 9", got)
	}
	if got := tb.Values(); !slices.Equal(got, []float64{1, 9, 1, 1, 9, 1, 9, 1}) {
		t.Errorf("Values = %v", got)
	}
}

func TestSegmentsStopAtEmptySegment(t *testing.T) {
	var heads []string
	var errs []string
	for s, err := range Segments("rates", " 1, fast=4:0-3 ,, slow=0.5") {
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		heads = append(heads, s.Head)
	}
	if !slices.Equal(heads, []string{"1", "fast"}) {
		t.Errorf("heads = %v, want [1 fast]", heads)
	}
	if want := []string{`rates: empty segment in " 1, fast=4:0-3 ,, slow=0.5"`}; !slices.Equal(errs, want) {
		t.Errorf("errors = %v, want %v", errs, want)
	}
}

func TestSegmentRange(t *testing.T) {
	for _, tc := range []struct {
		prefix, spec string
		lo, hi       int
		err          string
	}{
		{"rates", "fast=4:2-5", 2, 5, ""},
		{"rates", "fast=4: 7 ", 7, 7, ""},
		{"roles", "byz=10%", -1, -1, ""},
		{"rates", "fast=4:a-5", 0, 0, `rates: segment "fast=4:a-5" has a malformed node range "a-5"`},
		{"roles", "byz=pull:3-x", 0, 0, `roles: segment "byz=pull:3-x" has a malformed node range "3-x"`},
		{"rates", "fast=4:5-2", 0, 0, `rates: segment "fast=4:5-2" has an invalid node range 5-2`},
		{"roles", "byz=pull:-1", 0, 0, `roles: segment "byz=pull:-1" has a malformed node range "-1"`},
		{"roles", "byz=pull:4-1", 0, 0, `roles: segment "byz=pull:4-1" has an invalid node range 4-1`},
	} {
		for s, err := range Segments(tc.prefix, tc.spec) {
			if err != nil {
				t.Fatalf("%s %q: %v", tc.prefix, tc.spec, err)
			}
			lo, hi, err := s.Range()
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err || (err == nil && (lo != tc.lo || hi != tc.hi)) {
				t.Errorf("%s %q: Range() = %d, %d, %q; want %d, %d, %q", tc.prefix, tc.spec, lo, hi, got, tc.lo, tc.hi, tc.err)
			}
		}
	}
}
