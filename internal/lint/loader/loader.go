// Package loader loads and type-checks Go packages for the reconlint
// driver without depending on golang.org/x/tools/go/packages (the build
// environment is offline). It shells out to `go list -json` for package
// metadata and dependency order, parses the listed sources, and
// type-checks them with go/types; standard-library imports resolve
// from the build cache's compiled export data when `go list -export`
// can supply it, and fall back to the stdlib source importer when it
// can't.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects this package's parse and type-check errors.
	// Analyzers still run over partially-checked packages, but the
	// driver reports these separately (a broken build is not a lint
	// finding).
	TypeErrors []error
}

// listEntry is the subset of `go list -json` output we consume.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

// goList runs `go list -json` over patterns in dir and decodes the
// stream of package objects. With export set it also asks the build
// cache for each dependency's compiled export data (and passes -e so a
// package that fails to compile is still listed, just without export
// data — the caller falls back to type-checking from source).
func goList(dir string, deps, export bool, patterns []string) ([]listEntry, error) {
	args := []string{"list", "-json=ImportPath,Name,Dir,GoFiles,Standard,Export"}
	if deps {
		args = append(args, "-deps")
	}
	if export {
		args = append(args, "-e", "-export")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var entries []listEntry
	dec := json.NewDecoder(out)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("loader: decoding go list output: %w", err)
		}
		entries = append(entries, e)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("loader: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	return entries, nil
}

// chainImporter resolves module-local packages from an in-progress map
// and everything else (the standard library) from the source importer.
type chainImporter struct {
	local map[string]*types.Package
	std   types.ImporterFrom
	dir   string
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, c.dir, 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := c.local[path]; ok && p != nil {
		return p, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// LoadAll is Load plus the closure: it returns both the matched root
// packages and every in-module package that was type-checked to serve
// them (dependencies included, in dependency order). Whole-program
// passes — the interprocedural dataflow graph in particular — need the
// closure; per-package analyzers iterate the roots.
func LoadAll(dir string, patterns ...string) (rootPkgs, allPkgs []*Package, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	roots, err := goList(dir, false, false, patterns)
	if err != nil {
		return nil, nil, err
	}
	all, err := goList(dir, true, true, patterns)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	std, err := stdImporter(fset, all)
	if err != nil {
		return nil, nil, err
	}
	local := make(map[string]*types.Package)
	imp := &chainImporter{local: local, std: std, dir: dir}

	checked := make(map[string]*Package)
	// `go list -deps` emits dependencies before dependents, so a single
	// forward sweep type-checks every import before its importers.
	for _, e := range all {
		if e.Standard || len(e.GoFiles) == 0 {
			continue
		}
		pkg := checkOne(fset, imp, e)
		local[e.ImportPath] = pkg.Types
		checked[e.ImportPath] = pkg
		allPkgs = append(allPkgs, pkg)
	}

	rootPkgs = make([]*Package, 0, len(roots))
	for _, r := range roots {
		if p, ok := checked[r.ImportPath]; ok {
			rootPkgs = append(rootPkgs, p)
		}
	}
	return rootPkgs, allPkgs, nil
}

// stdImporter picks the standard-library importer: compiled export
// data from the build cache when `go list -export` produced it for
// every stdlib dependency, else type-checking the stdlib from source.
// The choice is all-or-nothing — mixing the two importers would
// materialize a shared dependency twice and break type identity, so a
// single gap sends the whole run down the (slower, self-contained)
// source path.
func stdImporter(fset *token.FileSet, all []listEntry) (types.ImporterFrom, error) {
	exports := make(map[string]string)
	complete := true
	for _, e := range all {
		if !e.Standard || e.ImportPath == "unsafe" {
			continue
		}
		if e.Export == "" {
			complete = false
			break
		}
		exports[e.ImportPath] = e.Export
	}
	if complete && len(exports) > 0 {
		lookup := func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("loader: no export data for %q", path)
			}
			return os.Open(file)
		}
		if gc, ok := importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom); ok {
			return gc, nil
		}
	}
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("loader: source importer unavailable")
	}
	return src, nil
}

// checkOne parses and type-checks one package.
func checkOne(fset *token.FileSet, imp types.Importer, e listEntry) *Package {
	pkg := &Package{ImportPath: e.ImportPath, Name: e.Name, Dir: e.Dir, Fset: fset}
	for _, name := range e.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		}
		if f != nil {
			pkg.Syntax = append(pkg.Syntax, f)
		}
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(e.ImportPath, fset, pkg.Syntax, pkg.Info)
	pkg.Types = tpkg
	return pkg
}
