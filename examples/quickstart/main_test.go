package main

import (
	"os"
	"strings"
	"testing"
)

// TestOutputGolden pins the walkthrough's report byte for byte: every run
// in it is seeded, so any drift in the round engines, the trajectory or
// the exact solver shows up here.
func TestOutputGolden(t *testing.T) {
	var b strings.Builder
	run(&b)
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("output drifted from testdata/output.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
