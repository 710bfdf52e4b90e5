package experiments

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
			path := filepath.Join("testdata", e.ID+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if want, err := os.ReadFile(path); err != nil {
				t.Fatalf("missing golden %s (run with -update): %v", path, err)
			} else if out != string(want) {
				t.Errorf("%s drifted from %s:\n got:\n%s\nwant:\n%s", e.ID, path, out, want)
			}
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

// TestWorkersReachE11: -workers selects the engine of E11's runs too, so
// its table at Workers 1 (the sharded engine) differs from Workers 0's.
func TestWorkersReachE11(t *testing.T) {
	e, err := ByID("E11")
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]strings.Builder
	for w := range outs {
		if err := e.Run(Config{Seed: 1, Trials: 3, Scale: 0.4, Workers: w}, &outs[w]); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].String() == outs[1].String() {
		t.Fatal("E11 prints the same table at Workers 0 and 1: -workers does not reach it")
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
