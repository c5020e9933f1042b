package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Demo", "Task", "Mapping")
	tb.AddRow("Task0", "GPP0 <-> Node0")
	tb.AddRow("LongTaskName", 3.14159)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, header, separator, two data rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "Task0") {
		t.Errorf("row = %q", lines[3])
	}
	if !strings.Contains(lines[4], "3.142") {
		t.Errorf("float formatting: %q", lines[4])
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Error("untitled table printed a title")
	}
}

func TestPaperVsMeasured(t *testing.T) {
	s := PaperVsMeasured("F10", "pairalign %", 89.76, 91.2, "(shape)")
	if !strings.Contains(s, "paper=89.76") || !strings.Contains(s, "measured=91.2") || !strings.Contains(s, "(shape)") {
		t.Errorf("line = %q", s)
	}
	bare := PaperVsMeasured("T2", "rows", 4, 4, "")
	if strings.HasSuffix(bare, " ") {
		t.Error("trailing space")
	}
}
