package covmatrix

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

var updateCoverage = flag.Bool("update", false, "rewrite COVERAGE.md from the current tree")

// repoRoot walks up from the package directory to the go.mod root so
// the guard sees the whole repository regardless of test working dir.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found walking up from the package directory")
		}
		dir = parent
	}
}

// TestCoverageMatrixGuard is the tier-1 coverage contract: the
// committed COVERAGE.md must equal the matrix recomputed from the live
// tree. A deleted golden, a removed differential suite, or a new
// strategy without coverage all change the rendered bytes and fail
// here until COVERAGE.md is regenerated and the diff reviewed.
func TestCoverageMatrixGuard(t *testing.T) {
	root := repoRoot(t)
	m, err := Compute(root)
	if err != nil {
		t.Fatalf("computing coverage matrix: %v", err)
	}
	var buf bytes.Buffer
	if err := m.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "COVERAGE.md")
	if *updateCoverage {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading committed matrix (regenerate with `go run ./cmd/covgen -out COVERAGE.md`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("COVERAGE.md is stale: a covered cell changed (went dark or new coverage landed); regenerate with `go run ./cmd/covgen -out COVERAGE.md` and review the diff")
	}
}

// TestCoverageNotVacuous pins a floor under the matrix itself: every
// registered scheduling strategy must keep at least one covered cell,
// and both evidence kinds must exist somewhere. Without this, deleting
// every marker and regenerating COVERAGE.md would "pass" the guard.
func TestCoverageNotVacuous(t *testing.T) {
	m, err := Compute(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for c := range m.Cells {
		covered[c.Strategy] = true
	}
	for _, s := range sched.Names() {
		if !covered[s] {
			t.Errorf("strategy %q has no covered cell in any regime/workload", s)
		}
	}
	var goldens, diffs int
	for _, srcs := range m.Cells {
		for _, s := range srcs {
			switch s.Kind {
			case KindGolden:
				goldens++
			case KindDifferential:
				diffs++
			}
		}
	}
	if goldens == 0 {
		t.Error("no golden evidence anywhere in the tree")
	}
	if diffs == 0 {
		t.Error("no differential evidence anywhere in the tree")
	}
	if len(m.Dangling) != 0 {
		t.Errorf("dangling golden markers (artifact deleted, marker kept): %v", m.Dangling)
	}
}
