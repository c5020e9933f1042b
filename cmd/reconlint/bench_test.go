package main

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkReconlint times the full pipeline over this repository:
// go list, parse, type-check (stdlib via the source importer), the
// whole-program dataflow build, and every analyzer. This is the cost
// tier-1 pays per verify run. One untimed run first loads the tree
// cold, so a single timed iteration (-benchtime 1x) reads a warm load.
func BenchmarkReconlint(b *testing.B) {
	lintRepo(b, "./...")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintRepo(b, "./...")
	}
	resetGlobals()
}

// BenchmarkReconlintTaint times a taint-only run (wiretaint and
// logtaint) over the repo, after one untimed run as BenchmarkReconlint
// does. The load/type-check/dataflow build dominates and is shared with
// the full suite, so the delta between this and BenchmarkReconlint
// bounds what the nine other analyzers cost. make benchdiff gates both
// against the committed baseline that the Makefile's BENCH_BASELINE
// names.
func BenchmarkReconlintTaint(b *testing.B) {
	lintRepo(b, "-run", "wiretaint,logtaint", "./...")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintRepo(b, "-run", "wiretaint,logtaint", "./...")
	}
	resetGlobals()
}

// lintRepo runs reconlint with args over the repository from fresh
// globals and fails b unless it exits 0.
func lintRepo(b *testing.B, args ...string) {
	b.Helper()
	resetGlobals()
	var stdout bytes.Buffer
	if code := run("../..", args, &stdout, io.Discard); code != 0 {
		b.Fatalf("reconlint %v over the repo exited %d:\n%s", args, code, stdout.String())
	}
}
