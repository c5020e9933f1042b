// Command benchdiff compares two cmd/benchjson snapshots under the
// noise-aware thresholds in internal/benchstat and enforces the perf
// regression contract:
//
//	benchdiff -old BENCH_PR22.json -new /tmp/bench_head.json
//
// Exit status: 0 when no gated metric regressed, 1 on regression
// (including a benchmark or metric that went dark), 2 on usage or
// parse errors. A markdown delta table is always printed to stdout.
//
// Wall-time metrics (ns/op) gate only when both snapshots were recorded
// on the same cpu/goarch (override with -force-time) and both sides ran
// at least -min-iters iterations; allocation metrics (B/op, allocs/op)
// and deterministic model metrics (b.ReportMetric units) always gate.
// Known-noisy benchmarks are excluded with repeatable -allow regexps —
// a reviewed policy decision, not a convenience (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/benchstat"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// repeatable collects a repeated string flag.
type repeatable []string

func (r *repeatable) String() string { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "baseline bench JSON (required)")
	newPath := fs.String("new", "", "candidate bench JSON (required)")
	minIters := fs.Int64("min-iters", 0, "override the minimum iterations for wall-time gating")
	forceTime := fs.Bool("force-time", false, "gate wall time even across machines")
	var allows, budgets repeatable
	fs.Var(&allows, "allow", "regexp of known-noisy benchmarks to never gate (repeatable)")
	fs.Var(&budgets, "budget", "override a unit budget as unit=rel[,abs], e.g. -budget allocs/op=0.05,16 (repeatable)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *oldPath == "" || *newPath == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchdiff: usage: benchdiff -old OLD.json -new NEW.json [-allow re]... [-budget unit=rel[,abs]]...")
		return 2
	}

	opts := benchstat.DefaultOptions()
	if *minIters > 0 {
		opts.MinIters = *minIters
	}
	for _, a := range allows {
		re, err := regexp.Compile(a)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: -allow %q: %v\n", a, err)
			return 2
		}
		opts.Allow = append(opts.Allow, re)
	}
	for _, b := range budgets {
		unit, budget, err := parseBudget(b)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: -budget %q: %v\n", b, err)
			return 2
		}
		opts.Budgets[unit] = budget
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
	opts.GateTime = *forceTime || benchstat.SameMachine(oldDoc, newDoc)

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

// parseBudget decodes "unit=rel" or "unit=rel,abs".
func parseBudget(s string) (string, benchstat.Budget, error) {
	unit, spec, ok := strings.Cut(s, "=")
	if !ok || unit == "" {
		return "", benchstat.Budget{}, fmt.Errorf("want unit=rel[,abs]")
	}
	relStr, absStr, hasAbs := strings.Cut(spec, ",")
	rel, err := strconv.ParseFloat(relStr, 64)
	if err != nil || rel < 0 {
		return "", benchstat.Budget{}, fmt.Errorf("bad relative budget %q", relStr)
	}
	b := benchstat.Budget{Rel: rel}
	if hasAbs {
		abs, err := strconv.ParseFloat(absStr, 64)
		if err != nil || abs < 0 {
			return "", benchstat.Budget{}, fmt.Errorf("bad absolute floor %q", absStr)
		}
		b.Abs = abs
	}
	return unit, b, nil
}
