// Package lint assembles the reconlint analyzer suite: which analyzers
// exist, which packages each one polices, and how diagnostics are
// collected, deduplicated, and filtered through //reconlint:allow
// directives. cmd/reconlint is a thin driver over this package.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/chanmisuse"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/dataflow"
	"repro/internal/lint/detrand"
	"repro/internal/lint/directive"
	"repro/internal/lint/errflow"
	"repro/internal/lint/goroleak"
	"repro/internal/lint/loader"
	"repro/internal/lint/lockcheck"
	"repro/internal/lint/lockorder"
	"repro/internal/lint/logtaint"
	"repro/internal/lint/maporder"
	"repro/internal/lint/seedflow"
	"repro/internal/lint/wiretaint"
)

// Diagnostic is one resolved finding with its file position.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// ScopedAnalyzer pairs an analyzer with the package scope it polices.
type ScopedAnalyzer struct {
	*analysis.Analyzer
	// Applies reports whether the analyzer runs on a package, by import
	// path. Scoping is by path segment, so it holds for any module name
	// (the real tree and test fixtures alike).
	Applies func(importPath string) bool
}

// pathHasDir reports whether importPath contains dir as a consecutive
// run of path segments ("internal/grid" matches "repro/internal/grid").
func pathHasDir(importPath, dir string) bool {
	return strings.Contains("/"+importPath+"/", "/"+dir+"/")
}

// simulationScope is the detrand scope: everything under internal/
// except the wall-clock profiler (its whole purpose is wall-clock
// instrumentation) and the linter itself.
func simulationScope(importPath string) bool {
	return pathHasDir(importPath, "internal") &&
		!pathHasDir(importPath, "internal/profiler") &&
		!pathHasDir(importPath, "internal/lint")
}

func everywhere(string) bool { return true }

// seedflowScope covers the packages whose randomness must derive from
// the scenario seed: the simulation core and everything the engine
// touches per event.
func seedflowScope(importPath string) bool {
	for _, dir := range []string{
		"internal/sim", "internal/grid", "internal/faults",
		"internal/sched", "internal/rms",
	} {
		if pathHasDir(importPath, dir) {
			return true
		}
	}
	return false
}

// errflowScope covers the engine execution paths plus the command
// mains that drive them.
func errflowScope(importPath string) bool {
	if pathHasDir(importPath, "cmd") {
		return true
	}
	for _, dir := range []string{
		"internal/grid", "internal/rms", "internal/faults", "internal/sim",
	} {
		if pathHasDir(importPath, dir) {
			return true
		}
	}
	return false
}

// concurrencyScope covers the packages that share mutable state across
// goroutines: the engine, the RMS and its control plane, and the
// observability sinks (all hold locks; the engine and sweeps spawn
// workers, the control plane one handler per connection).
func concurrencyScope(importPath string) bool {
	for _, dir := range []string{
		"internal/grid", "internal/rms", "internal/obs",
		"internal/sim", "internal/faults", "internal/controlplane",
	} {
		if pathHasDir(importPath, dir) {
			return true
		}
	}
	return false
}

// goroleakScope is concurrencyScope plus the command mains (entry
// points that must not leak goroutines past a run).
func goroleakScope(importPath string) bool {
	return pathHasDir(importPath, "cmd") || concurrencyScope(importPath)
}

// taintScope covers the multi-tenant trust boundary: the wire control
// plane and scheduler it feeds, plus the server and load-driver mains
// whose flag/env input shapes resource limits.
func taintScope(importPath string) bool {
	for _, dir := range []string{
		"internal/controlplane", "internal/jss",
		"cmd/rmsd", "cmd/gridload",
	} {
		if pathHasDir(importPath, dir) {
			return true
		}
	}
	return false
}

// Suite returns the reconlint analyzer suite with its package scoping.
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{Analyzer: detrand.Analyzer, Applies: simulationScope},
		{Analyzer: maporder.Analyzer, Applies: everywhere},
		{Analyzer: ctxflow.Analyzer, Applies: func(p string) bool { return pathHasDir(p, "internal/grid") }},
		{Analyzer: lockcheck.Analyzer, Applies: everywhere},
		{Analyzer: seedflow.Analyzer, Applies: seedflowScope},
		{Analyzer: errflow.Analyzer, Applies: errflowScope},
		// Concurrency analyzers (flow-sensitive, on the dataflow CFG and
		// lockset layer).
		{Analyzer: lockorder.Analyzer, Applies: concurrencyScope},
		{Analyzer: goroleak.Analyzer, Applies: goroleakScope},
		{Analyzer: chanmisuse.Analyzer, Applies: goroleakScope},
		// Taint analyzers (interprocedural taint lattice over the trust
		// boundary: wire structs, flags, env).
		{Analyzer: wiretaint.Analyzer, Applies: taintScope},
		{Analyzer: logtaint.Analyzer, Applies: taintScope},
	}
}

// Prepare runs the whole-program pre-pass the per-package analyzers
// rely on: the interprocedural dataflow graph (call graph plus
// provenance and taint summaries). Pass every loaded package,
// dependencies included — cross-package flow is only as complete as
// the package set handed in.
func Prepare(pkgs []*loader.Package) {
	infos := make([]*dataflow.PackageInfo, 0, len(pkgs))
	for _, p := range pkgs {
		infos = append(infos, &dataflow.PackageInfo{
			Fset: p.Fset, Files: p.Syntax, Pkg: p.Types, Info: p.Info,
		})
	}
	dataflow.SetProgram(dataflow.Build(infos))
}

// RunPackage runs every in-scope analyzer over one loaded package and
// returns the surviving diagnostics in position order. Directive
// problems (an allow with no reason) are reported under the pseudo
// analyzer name "reconlint".
func RunPackage(pkg *loader.Package, suite []ScopedAnalyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	seen := make(map[string]bool)
	add := func(analyzer string, pos token.Pos, msg string) {
		d := Diagnostic{Position: pkg.Fset.Position(pos), Analyzer: analyzer, Message: msg}
		key := d.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}

	_, problems := directive.Parse(pkg.Syntax)
	for _, p := range problems {
		add("reconlint", p.Pos, p.Message)
	}
	_, sanProblems := directive.ParseSanitized(pkg.Syntax)
	for _, p := range sanProblems {
		add("reconlint", p.Pos, p.Message)
	}

	for _, sa := range suite {
		if sa.Applies != nil && !sa.Applies(pkg.ImportPath) {
			continue
		}
		suppressed := directive.Suppresses(pkg.Fset, pkg.Syntax, sa.Name)
		pass := &analysis.Pass{
			Analyzer:  sa.Analyzer,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		name := sa.Name
		pass.Report = func(d analysis.Diagnostic) {
			if suppressed(d.Pos) {
				return
			}
			add(name, d.Pos, d.Message)
		}
		if _, err := sa.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", sa.Name, pkg.ImportPath, err)
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
