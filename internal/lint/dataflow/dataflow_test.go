package dataflow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/dataflow"
)

// load type-checks one in-memory package and wraps it for Build.
func load(t *testing.T, path, src string) *dataflow.PackageInfo {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &dataflow.PackageInfo{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// fn finds a function node by name in the graph.
func fn(t *testing.T, g *dataflow.Graph, name string) *dataflow.FuncNode {
	t.Helper()
	for _, n := range g.SortedFuncs() {
		if n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("function %s not in graph", name)
	return nil
}

const chaSrc = `package p

type doer interface{ Do() }

type alpha struct{}

func (alpha) Do() {}

type beta struct{}

func (*beta) Do() {}

func helper() {}

func Drive(d doer) {
	d.Do()
	helper()
}

func ClosureCaller() {
	f := func() { helper() }
	f()
}

func Island() {}
`

func TestCallGraphCHA(t *testing.T) {
	g := dataflow.Build([]*dataflow.PackageInfo{load(t, "p", chaSrc)})
	drive := fn(t, g, "Drive")

	var callees []string
	for _, c := range drive.SortedCallees() {
		callees = append(callees, c.FullName())
	}
	joined := strings.Join(callees, " ")
	// CHA: the interface call resolves to both concrete implementations.
	for _, want := range []string{"(p.alpha).Do", "(*p.beta).Do", "p.helper"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Drive callees = %v, missing %s", callees, want)
		}
	}

	// Calls inside a closure are edges of the enclosing declaration.
	cc := fn(t, g, "ClosureCaller")
	found := false
	for _, c := range cc.SortedCallees() {
		if c.Name() == "helper" {
			found = true
		}
	}
	if !found {
		t.Error("closure call not attributed to the enclosing function")
	}

	reach := g.Reachable([]*types.Func{drive.Fn})
	if !reach[fn(t, g, "helper").Fn] {
		t.Error("helper not reachable from Drive")
	}
	if reach[fn(t, g, "Island").Fn] {
		t.Error("Island wrongly reachable from Drive")
	}

	// Callers is the reverse edge set.
	helper := fn(t, g, "helper")
	if len(helper.Callers) == 0 {
		t.Error("helper has no recorded callers")
	}
}

// TestIsEntry pins the one entry-point rule errflow and goroleak share:
// main counts only in package main.
func TestIsEntry(t *testing.T) {
	body := `
func main() {}
func RunScenario() {}
func SweepAll() {}
func helper() {}
`
	for _, tc := range []struct {
		pkg  string
		want map[string]bool
	}{
		{"main", map[string]bool{"main": true, "RunScenario": true, "SweepAll": true, "helper": false}},
		{"lib", map[string]bool{"main": false, "RunScenario": true, "SweepAll": true, "helper": false}},
	} {
		g := dataflow.Build([]*dataflow.PackageInfo{load(t, tc.pkg, "package "+tc.pkg+"\n"+body)})
		for name, want := range tc.want {
			if got := dataflow.IsEntry(fn(t, g, name).Fn); got != want {
				t.Errorf("IsEntry(%s.%s) = %v, want %v", tc.pkg, name, got, want)
			}
		}
	}
}

// TestDerivedAnalysesOncePerGraph pins that a graph builds its
// lock-order graph and MHP sets once, however many goroutines ask, and
// that another graph of the same package builds its own.
func TestDerivedAnalysesOncePerGraph(t *testing.T) {
	pi := load(t, "p", chaSrc)
	g := dataflow.Build([]*dataflow.PackageInfo{pi})
	const callers = 4
	var wg sync.WaitGroup
	locks := make([]*dataflow.LockGraph, callers)
	mhps := make([]*dataflow.MHPInfo, callers)
	for i := range locks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			locks[i], mhps[i] = g.LockGraph(), g.MHP()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if locks[i] != locks[0] || mhps[i] != mhps[0] {
			t.Fatalf("caller %d got a second build of the graph's analyses", i)
		}
	}
	other := dataflow.Build([]*dataflow.PackageInfo{pi})
	if other.LockGraph() == locks[0] || other.MHP() == mhps[0] {
		t.Error("a second graph shares the first graph's analyses")
	}
}

const provSrc = `package q

import (
	"math/rand"
	"time"
)

type Spec struct{ Seed uint64 }

func constant() uint64 { return 42 }

func passthrough(x uint64) uint64 { return x }

func wallClock() int64 { return time.Now().UnixNano() }

func globalDraw() uint64 { return rand.Uint64() }

func fromSpec(s Spec) uint64 { return s.Seed }

func sinkDirect() { rand.NewSource(99) }

func sinkParam(seed int64) { rand.NewSource(seed) }

func sinkThroughHelper() { sinkParam(7) }

func sinkClean(s Spec) { sinkParam(int64(s.Seed)) }
`

func summaryOf(t *testing.T, g *dataflow.Graph, name string) *dataflow.Summary {
	t.Helper()
	s := g.Summary(fn(t, g, name).Fn)
	if s == nil {
		t.Fatalf("no summary for %s", name)
	}
	return s
}

func TestProvenanceSummaries(t *testing.T) {
	g := dataflow.Build([]*dataflow.PackageInfo{load(t, "q", provSrc)})

	cases := []struct {
		fn   string
		want dataflow.Provenance
	}{
		{"constant", dataflow.Constant},
		{"wallClock", dataflow.WallClock},
		{"globalDraw", dataflow.GlobalRand},
		{"fromSpec", dataflow.SeedDerived},
	}
	for _, c := range cases {
		s := summaryOf(t, g, c.fn)
		if len(s.Results) == 0 || s.Results[0].Prov != c.want {
			t.Errorf("%s result provenance = %+v, want %v", c.fn, s.Results, c.want)
		}
	}

	// A parameter returned unchanged carries its param bit, so callers
	// can substitute the argument's provenance.
	pt := summaryOf(t, g, "passthrough")
	if len(pt.Results) == 0 || pt.Results[0].Params == 0 {
		t.Errorf("passthrough result = %+v, want a parameter bit", pt.Results)
	}

	// A direct constant into a primitive sink.
	sd := summaryOf(t, g, "sinkDirect")
	if len(sd.Sinks) != 1 || sd.Sinks[0].Val.Prov != dataflow.Constant {
		t.Fatalf("sinkDirect sinks = %+v, want one constant sink", sd.Sinks)
	}

	// sinkParam feeds its parameter to the sink: the summary exposes the
	// parameter as a seed sink for interprocedural propagation.
	sp := summaryOf(t, g, "sinkParam")
	if len(sp.ParamSinks) != 1 {
		t.Fatalf("sinkParam ParamSinks = %+v, want one entry", sp.ParamSinks)
	}

	// One hop up, a constant argument becomes a constant sink with a
	// chain through the helper.
	sth := summaryOf(t, g, "sinkThroughHelper")
	if len(sth.Sinks) != 1 || sth.Sinks[0].Val.Prov != dataflow.Constant {
		t.Fatalf("sinkThroughHelper sinks = %+v, want one constant sink", sth.Sinks)
	}
	if len(sth.Sinks[0].Chain) < 2 {
		t.Errorf("propagated sink chain = %v, want the helper hop recorded", sth.Sinks[0].Chain)
	}

	// A seed-derived argument keeps the sink quiet for seedflow: the
	// sink is recorded, but its provenance is SeedDerived.
	sc := summaryOf(t, g, "sinkClean")
	for _, s := range sc.Sinks {
		if s.Val.Prov != dataflow.SeedDerived {
			t.Errorf("sinkClean sink = %+v, want seed-derived", s)
		}
	}
}

func TestResolveRegistry(t *testing.T) {
	dataflow.Reset()
	defer dataflow.Reset()

	pi := load(t, "r", `package r

func A() { B() }

func B() {}
`)
	whole := dataflow.Build([]*dataflow.PackageInfo{pi})
	dataflow.SetProgram(whole)

	// A registered program covering the package is returned as-is.
	if got := dataflow.Resolve(pi.Fset, pi.Files, pi.Pkg, pi.Info); got != whole {
		t.Error("Resolve did not return the registered whole-program graph")
	}

	// A package outside the program gets a fresh single-package graph.
	other := load(t, "s", `package s

func C() {}
`)
	got := dataflow.Resolve(other.Fset, other.Files, other.Pkg, other.Info)
	if got == whole {
		t.Error("Resolve returned a graph that does not cover the package")
	}
	if !got.HasPackage(other.Pkg) {
		t.Error("fallback graph does not cover the requesting package")
	}

	dataflow.Reset()
	if got := dataflow.Resolve(pi.Fset, pi.Files, pi.Pkg, pi.Info); got == whole {
		t.Error("Reset did not clear the registered program")
	}
}
