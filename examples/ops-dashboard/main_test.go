package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestOutputGolden pins the dashboard's report byte for byte at a small
// swarm (n = 5000, two churn waves in 12 time units), without a socket:
// the run replays from its seed and churn schedule, so any drift in the
// event runtime, the rate retunes or the health pack shows up here.
func TestOutputGolden(t *testing.T) {
	var b strings.Builder
	run(&b, newDashboard(5000), 12, 5)
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("output drifted from testdata/output.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestValidate: a swarm no larger than one churn wave, and a non-finite or
// non-positive -time or -churn, exit with a message instead of panicking
// (n = 1000 divided by zero placing the wave, n = 600 parked nodes past
// the end of the ring).
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name           string
		n              int
		simTime, churn float64
		want           string // "" = valid
	}{
		{"defaults", 100_000, 60, 5, ""},
		{"smallest n", waveSize + 1, 1, 1, ""},
		{"n one wave", waveSize, 60, 5, "-n must be in"},
		{"n below a wave", 600, 60, 5, "-n must be in"},
		{"n zero", 0, 60, 5, "-n must be in"},
		{"n negative", -5, 60, 5, "-n must be in"},
		{"time zero", 5000, 0, 5, "-time"},
		{"time negative", 5000, -1, 5, "-time"},
		{"time NaN", 5000, math.NaN(), 5, "-time"},
		{"time +Inf", 5000, math.Inf(1), 5, "-time"},
		{"churn zero", 5000, 60, 0, "-churn"},
		{"churn negative", 5000, 60, -2, "-churn"},
		{"churn NaN", 5000, 60, math.NaN(), "-churn"},
		{"churn +Inf", 5000, 60, math.Inf(1), "-churn"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.n, tc.simTime, tc.churn)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}
