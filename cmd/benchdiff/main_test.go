package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseDoc = `{
  "env": {"cpu": "test-cpu", "goarch": "amd64"},
  "results": [
    {"name": "BenchmarkA", "iterations": 100, "metrics": {"ns/op": 1000000, "allocs/op": 1000}},
    {"name": "BenchmarkB", "iterations": 100, "metrics": {"ns/op": 2000000, "reconfigs": 11}}
  ]
}`

// exit runs the command and returns (status, stdout, stderr).
func exit(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitOKWhenIdentical(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseDoc)
	code, out, errb := exit(t, "-old", old, "-new", old)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "| benchmark | unit |") || !strings.Contains(out, "0 regressed") {
		t.Errorf("markdown table missing from stdout:\n%s", out)
	}
}

func TestExitOneOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseDoc)
	new := write(t, dir, "new.json", strings.ReplaceAll(baseDoc, `"allocs/op": 1000`, `"allocs/op": 1400`))
	code, out, errb := exit(t, "-old", old, "-new", new)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(errb, "regression(s) beyond the noise budget") {
		t.Errorf("regression not reported:\nstdout:\n%s\nstderr:\n%s", out, errb)
	}
}

func TestExitOneOnModelDriftAndMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseDoc)
	// BenchmarkB's model metric drifts AND BenchmarkA disappears.
	new := write(t, dir, "new.json", `{
  "env": {"cpu": "test-cpu", "goarch": "amd64"},
  "results": [{"name": "BenchmarkB", "iterations": 100, "metrics": {"ns/op": 2000000, "reconfigs": 14}}]
}`)
	code, _, errb := exit(t, "-old", old, "-new", new)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb)
	}
	if !strings.Contains(errb, "BenchmarkA") || !strings.Contains(errb, "BenchmarkB") {
		t.Errorf("stderr does not name both regressions:\n%s", errb)
	}
}

// TestBudgetFlagOverrides pins that the default budgets are the only
// ones: a +5% allocs delta passes inside the 10% budget, +15% gates, and
// no flag loosens or tightens either (the usage table rejects -budget).
func TestBudgetFlagOverrides(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseDoc)
	within := write(t, dir, "within.json", strings.ReplaceAll(baseDoc, `"allocs/op": 1000`, `"allocs/op": 1050`))
	if code, _, errb := exit(t, "-old", old, "-new", within); code != 0 {
		t.Fatalf("default budget: exit %d; stderr: %s", code, errb)
	}
	beyond := write(t, dir, "beyond.json", strings.ReplaceAll(baseDoc, `"allocs/op": 1000`, `"allocs/op": 1150`))
	if code, _, _ := exit(t, "-old", old, "-new", beyond); code != 1 {
		t.Fatal("a +15% allocs delta did not gate")
	}
}

func TestCrossMachineTimeNotGatedUnlessForced(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseDoc)
	slower := strings.ReplaceAll(baseDoc, `"ns/op": 1000000`, `"ns/op": 9000000`)
	new := write(t, dir, "new.json", strings.ReplaceAll(slower, `"cpu": "test-cpu"`, `"cpu": "other-cpu"`))
	if code, _, errb := exit(t, "-old", old, "-new", new); code != 0 {
		t.Fatalf("cross-machine time delta gated: exit %d; stderr: %s", code, errb)
	}
	sameMachine := write(t, dir, "same.json", slower)
	if code, _, _ := exit(t, "-old", old, "-new", sameMachine); code != 1 {
		t.Fatal("a same-machine time regression did not gate")
	}
}

func TestExitTwoOnUsageAndParseErrors(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseDoc)
	bad := write(t, dir, "bad.json", "go test output, not json")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no flags", nil},
		{"missing -new", []string{"-old", old}},
		{"unknown flag", []string{"-old", old, "-new", old, "-frobnicate"}},
		{"positional junk", []string{"-old", old, "-new", old, "extra"}},
		{"nonexistent file", []string{"-old", old, "-new", filepath.Join(dir, "missing.json")}},
		{"unparseable file", []string{"-old", old, "-new", bad}},
		{"removed -allow flag", []string{"-old", old, "-new", old, "-allow", "^BenchmarkA$"}},
		{"removed -budget flag", []string{"-old", old, "-new", old, "-budget", "allocs/op=0.05,16"}},
	} {
		if code, _, _ := exit(t, tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
}
