package main

import (
	"os"
	"strings"
	"testing"
)

// TestOutputGolden pins both acts byte for byte: each run replays from
// (seed, roles), so any drift in the role layer, the live retune or the
// anonymity posterior shows up here.
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
