package experiments

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipdisc/internal/core"
	"gossipdisc/internal/rng"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/E<k>.golden from current behavior")

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) < 22 {
		t.Fatalf("expected at least 22 experiments, have %d", len(all))
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22"}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d is %s want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Paper == "" || all[i].Run == nil {
			t.Fatalf("experiment %s incompletely registered: %+v", id, all[i])
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E7")
	if err != nil || e.ID != "E7" {
		t.Fatalf("ByID(E7): %v %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("expected error for unknown ID")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Seed == 0 || c.Scale != 1 {
		t.Fatalf("normalized config %+v", c)
	}
	// Every scale outside (0, 1] — NaN included — means the full ladder.
	for _, scale := range []float64{math.NaN(), 0, -1, 2} {
		if got := (Config{Scale: scale}).normalized().Scale; got != 1 {
			t.Fatalf("Scale %v normalized to %v, want 1", scale, got)
		}
	}
	if (Config{Trials: 5}).trials(10) != 5 {
		t.Fatal("trials override broken")
	}
	if (Config{}).trials(10) != 10 {
		t.Fatal("trials default broken")
	}
}

func TestSizesScaling(t *testing.T) {
	full := Config{Scale: 1}.normalized()
	if got := full.sizes(8, 16, 32, 64); len(got) != 4 {
		t.Fatalf("full ladder %v", got)
	}
	half := Config{Scale: 0.5}.normalized()
	if got := half.sizes(8, 16, 32, 64); len(got) != 2 {
		t.Fatalf("half ladder %v", got)
	}
	tiny := Config{Scale: 0.01}.normalized()
	if got := tiny.sizes(8, 16, 32, 64); len(got) != 2 {
		t.Fatalf("tiny ladder should keep 2 rungs: %v", got)
	}
}

func TestPointSeedStable(t *testing.T) {
	a := pointSeed(1, 2, 3)
	b := pointSeed(1, 2, 3)
	c := pointSeed(1, 3, 2)
	if a != b {
		t.Fatal("pointSeed unstable")
	}
	if a == c {
		t.Fatal("pointSeed ignores coordinate order")
	}
}

func TestHashNameDistinguishes(t *testing.T) {
	if hashName("push") == hashName("pull") {
		t.Fatal("hashName collision on process names")
	}
}

// Every registered experiment must run end-to-end at a reduced scale and
// produce non-empty tabular output mentioning its own ID. The output is
// byte-identical on a sequential trial pool and the GOMAXPROCS default,
// and equal to testdata/<ID>.golden.
func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var outs [2]string
			for i, pool := range []int{1, 0} {
				var sb strings.Builder
				if err := e.Run(Config{Seed: 1, Trials: 3, Scale: 0.4, TrialWorkers: pool}, &sb); err != nil {
					t.Fatalf("%s failed: %v", e.ID, err)
				}
				outs[i] = sb.String()
			}
			out := outs[0]
			if outs[1] != out {
				t.Fatalf("%s output differs between trial pools 1 and 0:\n%s\n---\n%s", e.ID, out, outs[1])
			}
			checkGolden(t, e.ID, out)
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			if !strings.Contains(out, e.ID+":") {
				t.Fatalf("%s output does not carry its ID:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "----") {
				t.Fatalf("%s output has no table rule:\n%s", e.ID, out)
			}
		})
	}
}

// checkGolden compares out with testdata/<name>.golden, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	} else if out != string(want) {
		t.Errorf("%s drifted from %s:\n got:\n%s\nwant:\n%s", name, path, out, want)
	}
}

// TestExperimentVariantsGolden pins the paths TestAllExperimentsRunSmall
// does not take: E20's and E21's custom populations and CSV output. Each
// runs at the small test size on trial pools 1 and 0 against
// testdata/<name>.golden.
func TestExperimentVariantsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, tc := range []struct {
		name, id string
		cfg      Config
	}{
		{"E20-rates", "E20", Config{RateSpec: "0.5,fast=8:0-15"}},
		{"E21-roles", "E21", Config{RoleSpec: "honest,byzantine=5%"}},
		{"E12-csv", "E12", Config{CSV: true}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Seed, cfg.Trials, cfg.Scale = 1, 3, 0.4
			var outs [2]strings.Builder
			for i, pool := range []int{1, 0} {
				cfg.TrialWorkers = pool
				if err := e.Run(cfg, &outs[i]); err != nil {
					t.Fatalf("%s failed: %v", tc.name, err)
				}
			}
			if outs[0].String() != outs[1].String() {
				t.Fatalf("%s output differs between trial pools 1 and 0", tc.name)
			}
			checkGolden(t, tc.name, outs[0].String())
		})
	}
}

func TestCSVOutput(t *testing.T) {
	e, err := ByID("E8")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Run(Config{Seed: 2, Trials: 50, CSV: true}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "graph,kernel,exact E[T]") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "----") {
		t.Fatal("CSV output contains text-table rule")
	}
}

// TestRoundAtEdgeFraction folds a hand-computed batch: a 3-node trial that
// completes in round 1 and a 4-node trial that completes in round 3. The
// early trial keeps counting its final 3 edges: rounds 1–3 hold 7, 8 and 9
// of the 9 pairs.
func TestRoundAtEdgeFraction(t *testing.T) {
	trials := []edgeTrial{
		{pairs: 3, edges: []int{2, 3}},
		{pairs: 6, edges: []int{3, 4, 5, 6}},
	}
	for _, tc := range []struct {
		frac float64
		want int
	}{
		{0.5, 1}, {7.0 / 9, 1}, {0.8, 2}, {8.0 / 9, 2}, {0.9, 3}, {1, 3}, {1.01, -1},
	} {
		if got := roundAtEdgeFraction(trials, tc.frac); got != tc.want {
			t.Errorf("roundAtEdgeFraction(%v) = %d, want %d", tc.frac, got, tc.want)
		}
	}
	// A batch that never runs a round has no round to report.
	if got := roundAtEdgeFraction([]edgeTrial{{pairs: 3, edges: []int{3}}}, 0.5); got != -1 {
		t.Errorf("zero-round batch: roundAtEdgeFraction = %d, want -1", got)
	}
}

// TestByzantineWorkloadInfeasible: E21's custom table fails, naming the
// spec, when no node is honest, and buildByzantineWorkload gives up on a
// population too Byzantine to meet its conditions.
func TestByzantineWorkloadInfeasible(t *testing.T) {
	e, err := ByID("E21")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err = e.Run(Config{Seed: 1, Trials: 2, Scale: 0.4, RoleSpec: "byzantine=100%"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `"byzantine=100%"`) {
		t.Fatalf("E21 with an all-Byzantine population: err = %v, want an error naming the spec", err)
	}
	if got := strings.Count(sb.String(), "E21:"); got != 2 {
		t.Fatalf("E21 wrote %d tables before failing, want the 2 it finished:\n%s", got, sb.String())
	}

	pop, err := core.ParseRoleSpec("byzantine=95%", 48, core.Push{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildByzantineWorkload(48, pop.Nodes("byzantine"), rng.New(1)); err == nil {
		t.Fatal("buildByzantineWorkload met its conditions with 2 honest nodes of 48")
	}
}
