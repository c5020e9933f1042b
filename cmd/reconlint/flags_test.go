package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSkipFlags checks -run subsets the suite, that a typo is a
// usage error rather than a silently empty run, and that the driver
// accepts no flag besides -run and -sarif: -skip, like the other
// removed flags, is a usage error.
func TestRunSkipFlags(t *testing.T) {
	resetGlobals()
	defer resetGlobals()
	dir := findingsModule(t) // one errflow finding, one detrand finding

	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-run=errflow", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-run=errflow exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "(errflow)") || strings.Contains(stdout.String(), "(detrand)") {
		t.Errorf("-run=errflow should report only errflow findings:\n%s", stdout.String())
	}

	resetGlobals()
	stdout.Reset()
	stderr.Reset()
	if code := run(dir, []string{"-run=detrand,errflow", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-run=detrand,errflow exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "(errflow)") || !strings.Contains(stdout.String(), "(detrand)") {
		t.Errorf("-run=detrand,errflow should report both findings:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(dir, []string{"-run=nosuchanalyzer", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown -run name exit = %d, want 2\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("error should name the bad analyzer, stderr:\n%s", stderr.String())
	}

	for _, flag := range []string{"-fix", "-json", "-skip=errflow", "-baseline=x", "-write-baseline", "-prune-baseline"} {
		stdout.Reset()
		stderr.Reset()
		if code := run(dir, []string{flag, "./..."}, &stdout, &stderr); code != 2 {
			t.Errorf("%s exit = %d, want 2 (not a reconlint flag)", flag, code)
		}
	}
}

// TestGenericCallChain is the regression test for instantiated generic
// calls in the CHA edge builder: before the uninstantiate fix,
// f[T](...) call expressions fell through the edge builder (the callee
// hides behind an IndexExpr), so interprocedural chains died at the
// first generic hop. A constant seed handed to a generic constructor
// must reach the rand.NewSource sink in seedflow's view, with both
// explicit and inferred instantiation, and errflow must see a dropped
// error from a generic call.
func TestGenericCallChain(t *testing.T) {
	resetGlobals()
	defer resetGlobals()
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"internal/grid/gen.go": `package grid

import "math/rand"

func newSrc[S ~int64](seed S) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}

func gerr[T any](v T) error { _ = v; return nil }

func RunScenario() uint64 {
	bad := newSrc[int64](42)     // explicit instantiation
	alsoBad := newSrc(int64(7))  // inferred instantiation
	gerr(3)                      // dropped error through a generic call
	return uint64(bad.Int63()) + uint64(alsoBad.Int63())
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run(dir, []string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if strings.Count(out, "constant seed reaches rand.NewSource (via grid.newSrc)") < 2 {
		t.Errorf("both generic instantiation styles should reach the sink through grid.newSrc:\n%s", out)
	}
	if !strings.Contains(out, "errflow") {
		t.Errorf("dropped error from the generic gerr call not caught:\n%s", out)
	}
}
