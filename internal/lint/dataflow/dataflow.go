// Package dataflow is the interprocedural layer under the reconlint
// analyzers: a class-hierarchy-analysis (CHA) call graph over the
// loader's type-checked packages, plus one lattice solver (lattice.go)
// that propagates values through assignments, calls, returns, struct
// fields, and channel sends.
//
// The solver runs two domains, each to its own fixpoint: seed
// provenance (seed-derived / wall-clock / global-rand / constant /
// unknown, provenance.go) for seedflow, and taint (taint.go) for the
// wiretaint and logtaint trust-boundary analyzers. A domain
// supplies only its lattice and its hooks: what "no information" and
// constants read as, sources and sanitizers (read), call-site writes
// (effects), the sinks it reports, and //reconlint:sanitized coverage.
// The fixpoints, the local environment, the global field/channel
// state, assignment routing, summaries with parameter bitmasks, field
// writes through constructors, and sink propagation are shared.
//
// The graph is built once per driver run over every loaded package
// (lint.Prepare) and shared by every analyzer that resolves it;
// analyzer unit tests fall back to a single-package graph built on
// demand, so intra-package interprocedural behavior is testable
// without a whole-program load.
//
// Everything here is stdlib-only (go/ast, go/types); the design mirrors
// golang.org/x/tools/go/callgraph/cha scaled down to what the reconlint
// suite needs.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// PackageInfo is one type-checked package handed to Build. It carries
// the same fields an analysis.Pass does, so both the driver's loader
// packages and a single analyzer pass can feed the builder.
type PackageInfo struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// FuncNode is one function (or method) in the call graph.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Pkg/Info identify the defining package; function literals inside
	// the body are attributed to this node.
	Pkg  *types.Package
	Info *types.Info
	// Callees maps each statically-resolved or CHA-resolved callee to
	// the call positions that reach it.
	Callees map[*types.Func][]token.Pos
	// Callers is the reverse edge set.
	Callers map[*types.Func]bool
}

// Graph is the whole-program view: call graph plus both domains' state.
type Graph struct {
	Fset  *token.FileSet
	Funcs map[*types.Func]*FuncNode
	pkgs  map[*types.Package]*PackageInfo
	// prov and taint are the two domains' fixpoint states (lattice.go).
	prov  *solver[Value]
	taint *solver[TaintValue]
}

// Build constructs the call graph and runs the provenance and taint
// fixpoints over the given packages.
func Build(pkgs []*PackageInfo) *Graph {
	g := &Graph{
		Funcs: make(map[*types.Func]*FuncNode),
		pkgs:  make(map[*types.Package]*PackageInfo),
	}
	for _, p := range pkgs {
		if p == nil || p.Pkg == nil {
			continue
		}
		if g.Fset == nil {
			g.Fset = p.Fset
		}
		g.pkgs[p.Pkg] = p
		g.indexFuncs(p)
	}
	g.buildEdges()
	g.prov = solve[Value](g, provenance{})
	g.taint = solve[TaintValue](g, newTaint(g))
	return g
}

// HasPackage reports whether pkg was part of this graph's build.
func (g *Graph) HasPackage(pkg *types.Package) bool {
	_, ok := g.pkgs[pkg]
	return ok
}

// Node returns the call-graph node for fn, or nil when fn is not a
// declared function in the analyzed packages.
func (g *Graph) Node(fn *types.Func) *FuncNode {
	return g.Funcs[fn]
}

// Summary returns fn's provenance summary, or nil for functions outside
// the analyzed packages.
func (g *Graph) Summary(fn *types.Func) *Summary {
	return g.prov.summaries[fn]
}

// SortedFuncs returns every function node in deterministic order
// (position order), so analyzer output does not depend on map ranging.
func (g *Graph) SortedFuncs() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.Funcs))
	for _, n := range g.Funcs {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Decl.Pos() != out[j].Decl.Pos() {
			return out[i].Decl.Pos() < out[j].Decl.Pos()
		}
		return out[i].Fn.FullName() < out[j].Fn.FullName()
	})
	return out
}

// SortedCallees returns a node's callees in deterministic (full name,
// position) order, so graph traversals do not depend on map ranging.
func (n *FuncNode) SortedCallees() []*types.Func {
	out := make([]*types.Func, 0, len(n.Callees))
	for fn := range n.Callees {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FullName() != out[j].FullName() {
			return out[i].FullName() < out[j].FullName()
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}

// Reachable returns the set of functions reachable from roots over call
// edges (roots included).
func (g *Graph) Reachable(roots []*types.Func) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Funcs[fn]
		if node == nil {
			continue
		}
		for _, callee := range node.SortedCallees() {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return seen
}

// program is the driver-registered whole-program graph; analyzers fall
// back to a per-package build when their package was not part of it.
var program struct {
	mu sync.Mutex
	g  *Graph
}

// SetProgram registers the whole-program graph built by the driver.
func SetProgram(g *Graph) {
	program.mu.Lock()
	defer program.mu.Unlock()
	program.g = g
}

// Reset clears the registered whole-program graph and the derived
// per-graph caches (tests).
func Reset() {
	SetProgram(nil)
	lockGraphCache.mu.Lock()
	lockGraphCache.cache = nil
	lockGraphCache.mu.Unlock()
	mhpCache.mu.Lock()
	mhpCache.cache = nil
	mhpCache.mu.Unlock()
}

// Resolve returns the graph an analyzer pass should consult: the
// registered whole-program graph when it covers the pass's package,
// otherwise a fresh single-package graph (the analysistest path —
// interprocedural within the fixture package).
func Resolve(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Graph {
	program.mu.Lock()
	g := program.g
	program.mu.Unlock()
	if g != nil && g.HasPackage(pkg) {
		return g
	}
	return Build([]*PackageInfo{{Fset: fset, Files: files, Pkg: pkg, Info: info}})
}
