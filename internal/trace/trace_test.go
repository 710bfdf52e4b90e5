package trace

import (
	"strings"
	"testing"
)

func TestRenderAligned(t *testing.T) {
	tb := NewTable("demo", "n", "rounds")
	tb.AddRow("8", "123")
	tb.AddRow("128", "4")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "demo\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// All data lines equal width alignment: "128" row widens column 0 to 3.
	if !strings.Contains(lines[1], "n    rounds") {
		t.Fatalf("header misaligned: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "8  ") {
		t.Fatalf("row misaligned: %q", lines[3])
	}
}

func TestRenderNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(sb.String(), "\n") {
		t.Fatal("blank title line emitted")
	}
}

func TestAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("x", "a", "b").AddRow("only-one")
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("t", "name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow("with,comma", "2")
	tb.AddRow(`with"quote`, "3")
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != "name,value" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "plain,1" {
		t.Fatalf("row %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], `"with,comma"`) {
		t.Fatalf("comma not quoted: %q", lines[2])
	}
	if !strings.Contains(lines[3], `\"`) {
		t.Fatalf("quote not escaped: %q", lines[3])
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Fatalf("F: %q", F(1.23456, 2))
	}
	if I(42) != "42" {
		t.Fatalf("I: %q", I(42))
	}
}
