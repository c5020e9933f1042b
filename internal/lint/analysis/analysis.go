// Package analysis is a deliberately small, stdlib-only mirror of the
// golang.org/x/tools/go/analysis API: an Analyzer inspects one
// type-checked package through a Pass and reports position-accurate
// Diagnostics.
//
// The build environment for this repository is offline, so the real
// x/tools module cannot be pinned in go.mod. Field and type names below
// match x/tools exactly for the subset we use; migrating an analyzer to
// the upstream framework is a one-line import change.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name appears in diagnostics and
// in //reconlint:allow directives; Doc is the one-paragraph help text.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects a package via the Pass and reports findings through
	// pass.Report / pass.Reportf. The first return value is unused by
	// this repo's driver but kept for x/tools signature compatibility.
	Run func(*Pass) (interface{}, error)
}

// Pass hands one type-checked package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos token.Pos
	// Category is the reporting analyzer's name, filled by the driver.
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its types.Object (use or def), or
// nil when the identifier is not resolved (e.g. a parse-error artifact).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// FuncOf resolves the callee of a call expression to a *types.Func when
// the callee is a plain identifier or selector naming a function or
// method (instantiated generic calls included); it returns nil for
// function-typed variables, conversions, and builtins.
func (p *Pass) FuncOf(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Strip the type-argument index of an instantiated generic callee:
	// f[int](...) names f.
	for {
		if ix, ok := fun.(*ast.IndexExpr); ok {
			fun = ast.Unparen(ix.X)
			continue
		}
		if ix, ok := fun.(*ast.IndexListExpr); ok {
			fun = ast.Unparen(ix.X)
			continue
		}
		break
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := p.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
