// Command benchdiff compares two cmd/benchjson snapshots under the
// noise-aware thresholds in internal/benchstat and enforces the perf
// regression contract against the committed baseline, the file the
// Makefile's BENCH_BASELINE names:
//
//	benchdiff -old BENCH_PRn.json -new /tmp/bench_head.json
//
// Exit status: 0 when no gated metric regressed, 1 on regression
// (including a benchmark or metric that went dark), 2 on usage or
// parse errors. A markdown delta table is always printed to stdout.
//
// Wall-time metrics (ns/op) gate only when both snapshots were recorded
// on the same cpu/goarch and both sides ran at least
// benchstat.DefaultOptions().MinIters iterations; allocation metrics
// (B/op, allocs/op) and deterministic model metrics (b.ReportMetric
// units) always gate. The budgets are benchstat.DefaultOptions(): the
// gate has no per-invocation exemptions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchstat"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "baseline bench JSON (required)")
	newPath := fs.String("new", "", "candidate bench JSON (required)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *oldPath == "" || *newPath == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchdiff: usage: benchdiff -old OLD.json -new NEW.json")
		return 2
	}

	oldDoc, err := benchstat.LoadDoc(*oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newDoc, err := benchstat.LoadDoc(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	opts := benchstat.DefaultOptions()
	opts.GateTime = benchstat.SameMachine(oldDoc, newDoc)

	rep := benchstat.Diff(oldDoc, newDoc, opts)
	if err := rep.WriteMarkdown(stdout); err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if regs := rep.Regressions(); len(regs) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond the noise budget vs %s\n", len(regs), *oldPath)
		for _, d := range regs {
			fmt.Fprintf(stderr, "benchdiff:   %s [%s] %s\n", d.Name, d.Unit, d.Note)
		}
		return 1
	}
	return 0
}
