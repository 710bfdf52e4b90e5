package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// schemaVersion names the result file's layout; -compare refuses any other.
const schemaVersion = "gossipdisc-bench/1"

// resultFile is the one schema every recorded number lives in. The tool
// writes it; nobody edits it.
type resultFile struct {
	Schema     string `json:"schema"`
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`

	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is what one workload's child processes reported: either
// pass may be absent when the invocation did not run it.
type workloadResult struct {
	Name     string          `json:"name"`
	EndToEnd *endToEndResult `json:"end_to_end,omitempty"`
	Traced   *tracedResult   `json:"traced,omitempty"`
}

// tracedResult is one workload's traced pass: the per-layer metrics and
// the spans folded by name. The spans themselves go to -spans.
type tracedResult struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Spans     []spanSummary    `json:"spans"`
}

func newResultFile(seed uint64, seconds int) resultFile {
	return resultFile{
		Schema:     schemaVersion,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
	}
}

// gitSHA is the checked-out commit, marked when the tree differs from it;
// "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// cpuModel is the first processor's model name; "unknown" where /proc does
// not say.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func (rf resultFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, fmt.Errorf("read result: %w", err)
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("decode %s: %w", path, err)
	}
	if rf.Schema != schemaVersion {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, schemaVersion)
	}
	return rf, nil
}
