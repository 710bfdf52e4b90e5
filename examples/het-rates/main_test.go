package main

import (
	"os"
	"strings"
	"testing"
)

// TestOutputGolden pins the example's report byte for byte: the run is
// replayable from (seed, rates schedule), so any drift in the event
// runtime or in the age-of-information accounting shows up here.
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
