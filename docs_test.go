package gossipdisc_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gossipdisc/internal/experiments"
)

// TestRequiredDocs: the four project documents exist and are non-empty.
func TestRequiredDocs(t *testing.T) {
	for _, f := range []string{"README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md"} {
		if info, err := os.Stat(f); err != nil {
			t.Errorf("missing %s: %v", f, err)
		} else if info.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

// TestReadmeCatalogMatchesRegistry: README's experiment catalog lists
// exactly the registered experiments, in registry order.
func TestReadmeCatalogMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, ok := strings.Cut(string(readme), "\n## Experiment catalog\n")
	if !ok {
		t.Fatal(`README.md has no "## Experiment catalog" section`)
	}
	catalog, _, _ = strings.Cut(catalog, "\n## ")
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^\| (E\d+) +\|`).FindAllStringSubmatch(catalog, -1) {
		listed = append(listed, m[1])
	}
	var registered []string
	for _, e := range experiments.All() {
		registered = append(registered, e.ID)
	}
	if !slices.Equal(listed, registered) {
		t.Fatalf("README catalog lists %v, the registry has %v", listed, registered)
	}
}
