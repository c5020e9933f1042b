// Command reconlint is the repository's determinism, concurrency and
// trust-boundary linter: a multichecker over the analyzers in
// internal/lint (detrand, maporder, ctxflow, lockcheck, seedflow,
// errflow, lockorder, goroleak, chanmisuse, wiretaint, logtaint). It is
// part of tier-1 verify:
//
//	go run ./cmd/reconlint ./...
//
// Flags:
//
//	-run NAMES  run only the named analyzers (comma-separated)
//	-sarif      write SARIF 2.1.0 on stdout (CI code-scanning upload)
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Suppress
// an individual finding with a justified directive on or above the
// line:
//
//	//reconlint:allow <analyzer> <reason>
//
// catch_test.go is the suite's catch table: it seeds one bug per
// analyzer into a copy of the tree and checks each lands where
// expected, and each row records what go vet, go test, go test -race
// and benchdiff make of the same seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the linter over patterns relative to dir; factored out
// of main so tests can drive it against fixture modules.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reconlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: the whole suite)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: reconlint [flags] [packages]")
		fmt.Fprintln(stderr, "Runs the repro determinism, concurrency and trust-boundary analyzer suite.")
		fs.PrintDefaults()
		for _, sa := range lint.Suite() {
			fmt.Fprintf(stderr, "  %-15s %s\n", sa.Name, sa.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite, err := selectAnalyzers(lint.Suite(), *runList)
	if err != nil {
		fmt.Fprintln(stderr, "reconlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	roots, all, err := loader.LoadAll(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "reconlint:", err)
		return 2
	}
	broken := false
	for _, pkg := range all {
		for _, e := range pkg.TypeErrors {
			broken = true
			fmt.Fprintf(stderr, "reconlint: %s: %v\n", pkg.ImportPath, e)
		}
	}
	if broken {
		fmt.Fprintln(stderr, "reconlint: packages did not type-check; fix the build first")
		return 2
	}

	lint.Prepare(all)
	var diags []lint.Diagnostic
	for _, pkg := range roots {
		ds, err := lint.RunPackage(pkg, suite)
		if err != nil {
			fmt.Fprintln(stderr, "reconlint:", err)
			return 2
		}
		diags = append(diags, ds...)
	}

	if *sarifOut {
		absDir, err := filepath.Abs(dir)
		if err == nil {
			err = writeSARIF(stdout, absDir, diags, suite)
		}
		if err != nil {
			fmt.Fprintln(stderr, "reconlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "reconlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers applies the -run selection. Unknown names are an
// error: a typo must not silently run nothing.
func selectAnalyzers(suite []lint.ScopedAnalyzer, runList string) ([]lint.ScopedAnalyzer, error) {
	if runList == "" {
		return suite, nil
	}
	known := make(map[string]bool, len(suite))
	for _, sa := range suite {
		known[sa.Name] = true
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("-run: unknown analyzer %q (reconlint -h lists the suite)", name)
		}
		want[name] = true
	}
	var out []lint.ScopedAnalyzer
	for _, sa := range suite {
		if want[sa.Name] {
			out = append(out, sa)
		}
	}
	return out, nil
}
