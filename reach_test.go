package reconvirt

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/loader"
)

// reachAllowlist names the internal functions that no command, example,
// benchmark round or facade entry reaches but that a test in another
// package needs, each with that test.
var reachAllowlist = map[string]string{
	"bio.SumOfPairsScore":         "BenchmarkAblate_GuideTree (root bench_test.go)",
	"dataflow.Reset":              "TestSeedflowPlantedViaDriver, TestSARIFShape and TestCatchTable (cmd/reconlint)",
	"profiler.Profiler.CallGraph": "TestProfiledRunShapesLikeFig10 (internal/bio)",
	"sim.Constant.Sample":         "TestCrashRecoveryEndToEnd and the other faultRig tests (internal/grid)",
	"sim.Constant.String":         "TestCrashRecoveryEndToEnd and the other faultRig tests (internal/grid)",
}

// stdInterfaceMethods are the methods the standard library calls on a
// value of a referenced type without any call in this repository: fmt
// calls String and Error, errors.Is calls Is, sort and container/heap
// the collection methods, and go/types the importer methods. The JSON
// marshalers are left out: listed, they reached every marshaler whether
// or not anything encoded its type, and no type under internal/ has one.
var stdInterfaceMethods = []string{
	"String", "Error", "Is",
	"Len", "Less", "Swap", "Push", "Pop", "Import", "ImportFrom",
}

// TestInternalCodeReached holds internal/ to the code a command, an
// example, the benchmark or the facade can run. It type-checks the
// non-test code of this module and of bench/, starts from every main,
// every init, every package-level initializer and every declaration in
// reconvirt.go, and follows static references to functions and methods.
// A reference to an interface method reaches the methods of that name
// on every type the reached code references. It fails on every function
// or method in a non-test file under internal/ (internal/lint/analysistest
// aside) that is neither reached nor allowlisted, and on every allowlist
// entry that is reached or no longer declared.
func TestInternalCodeReached(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	_, pkgs, err := loader.LoadAll("bench", "./...", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	r := newReach()
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: %v", p.ImportPath, e)
		}
		r.index(p)
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, name := range stdInterfaceMethods {
		r.callInterface(name)
	}
	for _, p := range pkgs {
		for _, f := range p.Syntax {
			facade := p.ImportPath == "repro" && filepath.Base(p.Fset.File(f.Pos()).Name()) == "reconvirt.go"
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					if facade || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main") {
						r.reachFunc(fn)
					}
				case *ast.GenDecl:
					if facade || d.Tok == token.VAR {
						r.walk(d, p.Info)
					}
				}
			}
		}
	}
	r.drain()

	declared := map[string]bool{}
	var unreached []string
	for fn, decl := range r.funcDecls {
		path := fn.Pkg().Path()
		if !strings.HasPrefix(path, "repro/internal/") || path == "repro/internal/lint/analysistest" {
			continue
		}
		key := funcKey(fn)
		declared[key] = true
		_, allowed := reachAllowlist[key]
		switch {
		case r.reached[fn] && allowed:
			t.Errorf("allowlist entry %s is reached; delete the entry", key)
		case !r.reached[fn] && !allowed:
			pos := decl.pkg.Fset.Position(decl.decl.Pos())
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			unreached = append(unreached, fmt.Sprintf("%s %s:%d", key, filepath.ToSlash(rel), pos.Line))
		}
	}
	for key := range reachAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %s is no longer declared; delete the entry", key)
		}
	}
	if len(unreached) > 0 {
		sort.Strings(unreached)
		t.Errorf("%d internal functions and methods are reached by no command, example, benchmark or facade entry; delete them, move them into tests or allowlist them:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
}

// funcKey names fn as pkg.Recv.Name, or pkg.Name for a function.
func funcKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return fn.Pkg().Name() + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}

// declIn is a declaration with the package that type-checked it.
type declIn struct {
	decl ast.Node
	pkg  *loader.Package
}

// reach is the reachability fixpoint: reached functions, referenced
// types and the interface method names reached code calls.
type reach struct {
	funcDecls map[*types.Func]declIn
	typeDecls map[*types.TypeName]declIn
	reached   map[*types.Func]bool
	named     map[*types.TypeName]bool
	called    map[string]bool
	queue     []declIn
}

func newReach() *reach {
	return &reach{
		funcDecls: map[*types.Func]declIn{},
		typeDecls: map[*types.TypeName]declIn{},
		reached:   map[*types.Func]bool{},
		named:     map[*types.TypeName]bool{},
		called:    map[string]bool{},
	}
}

// index records where p declares its functions, methods and types.
func (r *reach) index(p *loader.Package) {
	for _, f := range p.Syntax {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				r.funcDecls[p.Info.Defs[d.Name].(*types.Func)] = declIn{d, p}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if s, ok := s.(*ast.TypeSpec); ok {
						if tn, ok := p.Info.Defs[s.Name].(*types.TypeName); ok {
							r.typeDecls[tn] = declIn{s, p}
						}
					}
				}
			}
		}
	}
}

func (r *reach) reachFunc(fn *types.Func) {
	fn = fn.Origin()
	if r.reached[fn] {
		return
	}
	r.reached[fn] = true
	if d, ok := r.funcDecls[fn]; ok {
		r.queue = append(r.queue, d)
	}
}

// callInterface reaches the methods called name on every referenced
// type, now and as more types are referenced.
func (r *reach) callInterface(name string) {
	if r.called[name] {
		return
	}
	r.called[name] = true
	for tn := range r.named {
		r.reachMethod(tn, name)
	}
}

func (r *reach) reference(tn *types.TypeName) {
	named, ok := types.Unalias(tn.Type()).(*types.Named)
	if !ok {
		return
	}
	tn = named.Origin().Obj()
	if r.named[tn] {
		return
	}
	r.named[tn] = true
	if d, ok := r.typeDecls[tn]; ok {
		r.queue = append(r.queue, d)
	}
	for name := range r.called {
		r.reachMethod(tn, name)
	}
}

// reachMethod reaches the method called name in the method set of *T,
// promoted ones included, unless T is an interface.
func (r *reach) reachMethod(tn *types.TypeName, name string) {
	if types.IsInterface(tn.Type()) {
		return
	}
	ms := types.NewMethodSet(types.NewPointer(tn.Type()))
	for i := 0; i < ms.Len(); i++ {
		if fn := ms.At(i).Obj().(*types.Func); fn.Name() == name {
			r.reachFunc(fn)
		}
	}
}

// walk follows the references in n.
func (r *reach) walk(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				r.callInterface(obj.Name())
			} else {
				r.reachFunc(obj)
			}
		case *types.TypeName:
			r.reference(obj)
		}
		return true
	})
}

func (r *reach) drain() {
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(d.decl, d.pkg.Info)
	}
}
