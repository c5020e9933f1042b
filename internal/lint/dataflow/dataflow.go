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
// The flow-sensitive layer runs on one forward must-dataflow driver,
// ForwardMust (mustflow.go), over the per-function CFG (cfg.go). The
// lockset analysis (lockset.go) and chanmisuse's nil-channel check are
// its two step functions. One breadth-first call-graph walk serves
// Reachable and MHP's spawner set (mhp.go). A Graph builds its
// lock-order graph (lockgraph.go) and its MHP sets once, on first use.
// TestForwardMust pins the driver; testdata/summaries.golden pins both
// domains and the lock and MHP facts over the analyzer fixtures.
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
	"strings"
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

// Graph is the whole-program view: call graph plus both domains' state,
// and the flow-sensitive analyses derived from them, each built once on
// first use and dropped with the graph.
type Graph struct {
	Fset  *token.FileSet
	Funcs map[*types.Func]*FuncNode
	pkgs  map[*types.Package]*PackageInfo
	// prov and taint are the two domains' fixpoint states (lattice.go).
	prov  *solver[Value]
	taint *solver[TaintValue]

	lockOnce  sync.Once
	lockGraph *LockGraph
	mhpOnce   sync.Once
	mhp       *MHPInfo
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
func (n *FuncNode) SortedCallees() []*types.Func { return byName(n.Callees) }

// sortedCallers returns a node's callers in the same order.
func (n *FuncNode) sortedCallers() []*types.Func { return byName(n.Callers) }

// byName returns a function set's keys in (full name, position) order.
func byName[V any](set map[*types.Func]V) []*types.Func {
	out := make([]*types.Func, 0, len(set))
	for fn := range set {
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
	return g.closure(roots, (*FuncNode).SortedCallees)
}

// closure is the one breadth-first walk over the call graph: roots plus
// every function that edges leads to from them, transitively.
func (g *Graph) closure(roots []*types.Func, edges func(*FuncNode) []*types.Func) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		node := g.Funcs[queue[0]]
		queue = queue[1:]
		if node == nil {
			continue
		}
		for _, next := range edges(node) {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}

// IsEntry reports whether fn is an entry point the reachability-gated
// analyzers (errflow, goroleak) start from: main.main, or an engine
// run or sweep entry (a name starting with Run or Sweep).
func IsEntry(fn *types.Func) bool {
	if fn.Name() == "main" {
		return fn.Pkg() != nil && fn.Pkg().Name() == "main"
	}
	return strings.HasPrefix(fn.Name(), "Run") || strings.HasPrefix(fn.Name(), "Sweep")
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

// Reset clears the registered whole-program graph (tests).
func Reset() {
	SetProgram(nil)
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

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
