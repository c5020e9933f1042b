package covmatrix

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mk assembles a marker line at runtime so this file's own string
// literals never contain the scanner token and Compute over the real
// repo tree does not pick them up as coverage claims.
var mk = "//" + "scenario:"

// writeTree materializes a map of relative path -> content under a
// fresh temp dir and returns the root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestComputeCoversMarkedCells(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/a_test.go": "package a\n\n" +
			mk + "golden strategy=first-fit regime=moderate workload=default file=testdata/out.golden\n" +
			mk + "differential strategy=all regime=none workload=dag\n" +
			"func TestA() {}\n",
		"pkg/testdata/out.golden": "pinned\n",
	})
	m, err := Compute(root)
	if err != nil {
		t.Fatal(err)
	}
	golden := Cell{Strategy: "first-fit", Regime: "moderate", Workload: "default"}
	if len(m.Cells[golden]) == 0 || !m.has(golden, KindGolden) {
		t.Errorf("golden cell %s not covered: %v", golden, m.Cells[golden])
	}
	if got := m.Cells[golden][0].Path; got != "pkg/testdata/out.golden" {
		t.Errorf("golden source path = %q, want the artifact path", got)
	}
	for _, s := range Strategies() {
		cell := Cell{Strategy: s, Regime: "none", Workload: "dag"}
		if !m.has(cell, KindDifferential) {
			t.Errorf("strategy=all did not expand to %s", cell)
		}
	}
	if len(m.Cells[Cell{Strategy: "first-fit", Regime: "hostile", Workload: "default"}]) > 0 {
		t.Error("unmarked cell reported covered")
	}
	if len(m.Dangling) != 0 {
		t.Errorf("unexpected dangling markers: %v", m.Dangling)
	}
}

// TestComputeDeletedGoldenFlipsCellDark is the core contract: removing
// the artifact (while the marker stays) must uncover the cell and
// surface the marker as dangling, which changes the rendered document
// and therefore fails the COVERAGE.md guard.
func TestComputeDeletedGoldenFlipsCellDark(t *testing.T) {
	files := map[string]string{
		"pkg/a_test.go": "package a\n\n" +
			mk + "golden strategy=first-fit regime=moderate workload=default file=testdata/out.golden\n" +
			"func TestA() {}\n",
		"pkg/testdata/out.golden": "pinned\n",
	}
	root := writeTree(t, files)
	cell := Cell{Strategy: "first-fit", Regime: "moderate", Workload: "default"}

	before, err := Compute(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Cells[cell]) == 0 {
		t.Fatalf("precondition: %s not covered", cell)
	}
	var renderedBefore strings.Builder
	if err := before.WriteMarkdown(&renderedBefore); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(filepath.Join(root, "pkg/testdata/out.golden")); err != nil {
		t.Fatal(err)
	}
	after, err := Compute(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Cells[cell]) > 0 {
		t.Errorf("cell %s still covered after its golden was deleted", cell)
	}
	if len(after.Dangling) != 1 || !strings.Contains(after.Dangling[0], "pkg/testdata/out.golden") {
		t.Errorf("dangling markers = %v, want the orphaned golden", after.Dangling)
	}
	var renderedAfter strings.Builder
	if err := after.WriteMarkdown(&renderedAfter); err != nil {
		t.Fatal(err)
	}
	if renderedBefore.String() == renderedAfter.String() {
		t.Error("deleting a golden left COVERAGE.md unchanged — the guard would not fire")
	}
}

func TestComputeRejectsInvalidMarkers(t *testing.T) {
	cases := []struct {
		name, marker, wantErr string
	}{
		{"unknown kind", mk + "fuzz strategy=first-fit regime=none workload=dag", "unknown scenario marker kind"},
		{"unknown strategy", mk + "differential strategy=round-robin regime=none workload=dag", `unknown axis value "round-robin"`},
		{"unknown regime", mk + "differential strategy=first-fit regime=catastrophic workload=dag", `unknown axis value "catastrophic"`},
		{"unknown workload", mk + "differential strategy=first-fit regime=none workload=webscale", `unknown axis value "webscale"`},
		{"unknown key", mk + "differential strategy=first-fit regime=none workload=dag color=red", `unknown key "color"`},
		{"missing axis", mk + "differential strategy=first-fit workload=dag", "needs strategy=, regime=, and workload="},
		{"golden without file", mk + "golden strategy=first-fit regime=none workload=dag", "golden marker needs file="},
		{"malformed field", mk + "differential strategy= regime=none workload=dag", "malformed scenario field"},
		{"empty marker", mk + " ", "empty scenario marker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := writeTree(t, map[string]string{
				"pkg/a_test.go": "package a\n\n" + tc.marker + "\nfunc TestA() {}\n",
			})
			_, err := Compute(root)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Compute error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestComputeSkipsTestdataAndNonTestFiles(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Markers in testdata trees or non-test files must be inert: they
		// are fixtures or docs, not coverage claims.
		"pkg/testdata/sample_test.go": "package x\n" + mk + "differential strategy=first-fit regime=none workload=dag\n",
		"pkg/notes.go":                "package a\n" + mk + "differential strategy=first-fit regime=none workload=io\n",
	})
	m, err := Compute(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 0 {
		t.Errorf("markers outside *_test.go counted: %v", m.Cells)
	}
}

func TestMarkdownDeterministic(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/a_test.go": "package a\n\n" +
			mk + "differential strategy=all regime=all workload=default\n" +
			mk + "golden strategy=gpp-only regime=none workload=io file=testdata/out.golden\n" +
			"func TestA() {}\n",
		"pkg/testdata/out.golden": "pinned\n",
	})
	render := func() string {
		m, err := Compute(root)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := m.WriteMarkdown(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if render() != first {
			t.Fatal("WriteMarkdown output depends on map iteration order")
		}
	}
}
