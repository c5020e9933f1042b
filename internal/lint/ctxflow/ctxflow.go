// Package ctxflow implements the reconlint analyzer that enforces
// context propagation through blocking library entry points.
//
// The sweep engine's cancellation contract (Engine.Run, grid.Sweep)
// only holds if every exported entry point that reaches a
// context-aware callee threads a caller-supplied context.Context down
// to it. Minting a fresh context inside library code silently detaches
// the call from the caller's deadline. The analyzer reports:
//
//   - any call to context.Background() or context.TODO() in library
//     code (main packages are excluded by the driver's scoping),
//   - exported functions and methods that call a context-aware callee
//     (one whose signature takes a context.Context) without themselves
//     accepting a context.Context parameter.
//
// Deliberate detachment points (e.g. a documented nil-context
// fallback) are suppressed with //reconlint:allow ctxflow <reason>.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "exported blocking entry points must accept and propagate context.Context; no context.Background in library code",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBackground(pass, fd)
			if fd.Name.IsExported() && !takesContext(pass, fd) {
				checkPropagation(pass, fd)
			}
		}
	}
	return nil, nil
}

// checkBackground reports context.Background/TODO calls anywhere in fd.
func checkBackground(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.FuncOf(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s() in library code detaches callees from the caller's cancellation; accept a context.Context parameter and pass it through",
				fn.Name())
		}
		return true
	})
}

// takesContext reports whether fd declares a context.Context parameter.
func takesContext(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if dataflow.IsContextType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// checkPropagation reports fd's calls to context-aware callees: an
// exported entry point reaching one must itself accept a context.
func checkPropagation(pass *analysis.Pass, fd *ast.FuncDecl) {
	reported := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			// A closure may legitimately capture a context created by a
			// caller-side helper; only direct calls indict the signature.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.FuncOf(call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if dataflow.IsContextType(sig.Params().At(i).Type()) {
				pass.Reportf(fd.Name.Pos(),
					"exported %s calls context-aware %s but does not accept a context.Context; add one and propagate it",
					fd.Name.Name, fn.Name())
				reported = true
				return false
			}
		}
		return true
	})
}
