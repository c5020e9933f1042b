// Command relreport assembles the per-release quality report: benchmark
// deltas against the committed baseline (internal/benchstat), the
// scenario coverage matrix (internal/covmatrix), and optionally a
// cmd/gridload soak summary, rendered as markdown and/or HTML.
//
//	relreport -old BENCH_PR30.json -new /tmp/bench_head.json -md report.md -html report.html
//	relreport -old BENCH_PR30.json -new /tmp/bench_head.json -soak soak.json -md -
//
// Sections whose inputs are absent are omitted; relreport never gates
// (that is cmd/benchdiff's job), it only renders. Exit status: 0 ok,
// 2 usage or input errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchstat"
	"repro/internal/covmatrix"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "baseline bench JSON (omit to skip the bench section)")
	newPath := fs.String("new", "", "candidate bench JSON")
	soakPath := fs.String("soak", "", "gridload soak summary JSON (optional)")
	title := fs.String("title", "Release report", "report title")
	root := fs.String("root", ".", "repo root for the coverage matrix (empty to skip)")
	mdOut := fs.String("md", "", "write markdown to this file ('-' for stdout)")
	htmlOut := fs.String("html", "", "write HTML to this file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "relreport: unexpected arguments")
		return 2
	}
	if (*oldPath == "") != (*newPath == "") {
		fmt.Fprintln(stderr, "relreport: -old and -new must be given together")
		return 2
	}
	if *mdOut == "" && *htmlOut == "" {
		fmt.Fprintln(stderr, "relreport: nothing to do; pass -md and/or -html")
		return 2
	}

	rel := &report.Release{Title: *title}
	if *oldPath != "" {
		oldDoc, err := benchstat.LoadDoc(*oldPath)
		if err != nil {
			fmt.Fprintln(stderr, "relreport:", err)
			return 2
		}
		newDoc, err := benchstat.LoadDoc(*newPath)
		if err != nil {
			fmt.Fprintln(stderr, "relreport:", err)
			return 2
		}
		opts := benchstat.DefaultOptions()
		opts.GateTime = benchstat.SameMachine(oldDoc, newDoc)
		rel.Bench = benchstat.Diff(oldDoc, newDoc, opts)
	}
	if *root != "" {
		m, err := covmatrix.Compute(*root)
		if err != nil {
			fmt.Fprintln(stderr, "relreport:", err)
			return 2
		}
		rel.Coverage = m
	}
	if *soakPath != "" {
		s, err := report.LoadSoakSummary(*soakPath)
		if err != nil {
			fmt.Fprintln(stderr, "relreport:", err)
			return 2
		}
		rel.Soak = s
	}

	emit := func(path string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if path == "-" {
			return render(stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	if err := emit(*mdOut, rel.WriteMarkdown); err != nil {
		fmt.Fprintln(stderr, "relreport:", err)
		return 2
	}
	if err := emit(*htmlOut, rel.WriteHTML); err != nil {
		fmt.Fprintln(stderr, "relreport:", err)
		return 2
	}
	return 0
}
