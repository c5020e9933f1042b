package main

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkReconlint times the full pipeline over this repository:
// go list, parse, type-check (stdlib via the source importer), the
// whole-program dataflow build, and every analyzer. This is the cost
// tier-1 pays per verify run.
func BenchmarkReconlint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		resetGlobals()
		var stdout bytes.Buffer
		code := run("../..", []string{"./..."}, &stdout, io.Discard)
		if code != 0 {
			b.Fatalf("reconlint over the repo exited %d:\n%s", code, stdout.String())
		}
	}
	resetGlobals()
}

// BenchmarkReconlintTaint times a taint-only run (wiretaint and
// logtaint) over the repo. The load/type-check/dataflow build dominates
// and is shared with the full suite, so the delta between this and
// BenchmarkReconlint bounds what the nine other analyzers cost. make benchdiff gates both
// against the committed baseline that the Makefile's BENCH_BASELINE
// names.
func BenchmarkReconlintTaint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		resetGlobals()
		var stdout bytes.Buffer
		code := run("../..", []string{"-run", "wiretaint,logtaint", "./..."}, &stdout, io.Discard)
		if code != 0 {
			b.Fatalf("taint-only reconlint over the repo exited %d:\n%s", code, stdout.String())
		}
	}
	resetGlobals()
}
