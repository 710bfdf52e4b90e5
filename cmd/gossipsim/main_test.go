package main

import (
	"flag"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// runMainEnv, when set, makes the test binary run gossipsim's main on its
// command-line arguments instead of the tests: TestOutputGolden re-executes
// this binary so every row goes through the real flag parsing, exit paths
// and stdout/stderr of the command.
const runMainEnv = "GOSSIPSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputGolden runs gossipsim end to end, one row per surface (each
// process, commit mode and runtime, roles, the wire stack, a stepped trace)
// and compares its combined stdout and stderr with testdata/<name>.golden.
// Rows run from the repository root, so file arguments are written as a
// user would type them there. go test ./cmd/gossipsim -update rewrites the
// goldens.
func TestOutputGolden(t *testing.T) {
	rows := []struct {
		name string
		args []string
	}{
		{"sync-push", []string{"-process", "push", "-family", "cycle", "-n", "64", "-trials", "3"}},
		{"sync-pull", []string{"-process", "pull", "-family", "randtree", "-n", "48", "-trials", "3"}},
		{"push-pull-trace", []string{"-process", "push-pull", "-family", "path", "-n", "40", "-trace", "5"}},
		{"eager", []string{"-mode", "eager", "-n", "64", "-trials", "2"}},
		{"roles", []string{"-roles", "honest,byzantine=5%,selfish=10:0-9", "-n", "48", "-trials", "2", "-rounds", "300"}},
		{"directed", []string{"-process", "directed", "-dfamily", "thm15", "-n", "24"}},
		{"directed-fail", []string{"-process", "directed", "-dfamily", "thm15", "-n", "16", "-fail", "0.9"}},
		{"scenario", []string{"-scenario", "internal/netsim/testdata/scenario.json", "-n", "32", "-trials", "2"}},
		{"async", []string{"-mode", "async", "-n", "48", "-trials", "3"}},
		{"async-rates", []string{"-mode", "async", "-rates", "0.5,fast=4:0-7", "-n", "48", "-trials", "2"}},
		// rounds × n passes math.MaxInt and saturates: the run converges
		// instead of stopping at the wrapped product (8 events).
		{"async-huge-budget", []string{"-mode", "async", "-rounds", strconv.Itoa(1<<(bits.UintSize-2) + 1), "-n", "8"}},
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cmd := exec.Command(exe, row.args...)
			cmd.Dir = filepath.Join("..", "..")
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			got, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("gossipsim %q: %v\n%s", row.args, err, got)
			}
			path := filepath.Join("testdata", row.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("gossipsim %q output differs from %s:\ngot:\n%s\nwant:\n%s", row.args, path, got, want)
			}
		})
	}
}
