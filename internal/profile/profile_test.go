package profile

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, size %d — want a written profile", path, err, st.Size())
		}
	}
}

func TestFlagsOffDoesNothing(t *testing.T) {
	stop, err := Flags{}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagErrorsAreErrors(t *testing.T) {
	if err := (Flags{CPU: "p.prof", Mem: "p.prof"}).Validate(); err == nil || !strings.Contains(err.Error(), "same file") {
		t.Fatalf("one file for both profiles: %v", err)
	}
	dir := t.TempDir()
	good, missing := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "no-such-dir", "p.prof")
	for flagName, f := range map[string]Flags{"-cpuprofile": {CPU: missing}, "-memprofile": {CPU: good, Mem: missing}} {
		if _, err := f.Start(); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Fatalf("%s into a missing directory: %v", flagName, err)
		}
	}
	// Neither failed Start left a CPU profile running: the next one starts.
	stop, err := Flags{CPU: good}.Start()
	if err != nil {
		t.Fatalf("Start after a failed Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
