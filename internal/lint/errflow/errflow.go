// Package errflow implements the reconlint analyzer that flags dropped
// errors and swallowed cancellation along the engine's execution paths.
//
// A dropped error on the event loop or a retry path turns a fault into
// silent metric corruption — exactly the failure mode the invariant
// test layer exists to catch, one layer too late. The analyzer uses
// the dataflow call graph to compute the set of functions reachable
// from the engine entry points (main.main, Run*, Sweep*) — interface
// calls resolved via CHA, event-loop closures attributed to the
// function that scheduled them — and inside that set reports:
//
//   - a call statement that silently discards an error result (an
//     explicit `_ =` assignment is a visible, auditable drop and is
//     allowed; the fmt print family and never-failing in-memory
//     writers like strings.Builder and bytes.Buffer are exempt),
//   - `go`/`defer` statements discarding an error result,
//   - a ctx.Err() result that is discarded outright,
//   - `return nil` inside a <-ctx.Done() select case in a function
//     returning error: cancellation observed, then swallowed.
//
// Escape hatch: //reconlint:allow errflow <reason>.
package errflow

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer is the errflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "no dropped error returns or swallowed ctx.Err() on paths reachable from engine entry points",
	Run:  run,
}

var errorType = types.Universe.Lookup("error").Type()

func run(pass *analysis.Pass) (interface{}, error) {
	g := dataflow.Resolve(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo)
	var roots []*types.Func
	for _, node := range g.SortedFuncs() {
		if dataflow.IsEntry(node.Fn) {
			roots = append(roots, node.Fn)
		}
	}
	reach := g.Reachable(roots)
	c := &checker{pass: pass}
	for _, node := range g.SortedFuncs() {
		if node.Pkg != pass.Pkg || !reach[node.Fn] {
			continue
		}
		sig := node.Fn.Type().(*types.Signature)
		c.checkBody(node.Decl.Body, sig)
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
}

// checkBody walks one function body; nested literals are checked
// against their own signatures (their returns are theirs, not the
// enclosing function's).
func (c *checker) checkBody(body *ast.BlockStmt, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if litSig, ok := c.pass.TypeOf(n).(*types.Signature); ok {
				c.checkBody(n.Body, litSig)
			}
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				c.checkDropped(call, "")
			}
		case *ast.GoStmt:
			c.checkDropped(n.Call, "go ")
		case *ast.DeferStmt:
			c.checkDropped(n.Call, "defer ")
		case *ast.AssignStmt:
			c.checkBlankCtxErr(n)
		case *ast.CommClause:
			c.checkDoneCase(n, sig)
		}
		return true
	})
	// Comm clauses and nested statements are handled above; nothing else
	// to do at the body level.
}

// returnsError reports whether a call's type has an error-typed result.
func returnsError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return t != nil && types.Identical(t, errorType)
}

// fmtPrintFamily are conventionally-unchecked writers to std streams.
var fmtPrintFamily = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// neverFails reports whether fn is a method documented to always
// return a nil error: writes to in-memory buffers (strings.Builder,
// bytes.Buffer). Flagging those would only breed noise `_ =` clutter.
func neverFails(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func (c *checker) checkDropped(call *ast.CallExpr, stmtKind string) {
	tv, ok := c.pass.TypesInfo.Types[call]
	if !ok {
		return
	}
	if !returnsError(tv.Type) {
		return
	}
	if fn := c.pass.FuncOf(call); fn != nil {
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && fmtPrintFamily[fn.Name()] {
			return
		}
		if neverFails(fn) {
			return
		}
		if c.isCtxErr(fn) {
			c.pass.Report(analysis.Diagnostic{
				Pos:     call.Pos(),
				Message: "ctx.Err() result discarded: the observed cancellation never reaches the caller",
			})
			return
		}
	}
	name := calleeLabel(c.pass, call)
	if stmtKind == "" {
		c.pass.Reportf(call.Pos(),
			"error result of %s silently dropped on a Run-reachable path; handle it or discard explicitly with _ =", name)
		return
	}
	c.pass.Reportf(call.Pos(),
		"error result of %s%s silently dropped on a Run-reachable path; handle it in the %sed function or wrap the call",
		stmtKind, name, strings.TrimSpace(stmtKind))
}

// checkBlankCtxErr flags `_ = ctx.Err()`: unlike other errors, blank-
// assigning a cancellation check is never a deliberate drop — the call
// has no side effects, so the statement does nothing at all.
func (c *checker) checkBlankCtxErr(as *ast.AssignStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name != "_" {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	if fn := c.pass.FuncOf(call); fn != nil && c.isCtxErr(fn) {
		c.pass.Reportf(call.Pos(),
			"ctx.Err() result discarded: the observed cancellation never reaches the caller")
	}
}

// isCtxErr reports whether fn is (context.Context).Err.
func (c *checker) isCtxErr(fn *types.Func) bool {
	if fn.Name() != "Err" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return dataflow.IsContextType(sig.Recv().Type())
}

// checkDoneCase flags `case <-ctx.Done(): … return nil` in a function
// whose last result is error.
func (c *checker) checkDoneCase(clause *ast.CommClause, sig *types.Signature) {
	nres := sig.Results().Len()
	if nres == 0 || !types.Identical(sig.Results().At(nres-1).Type(), errorType) {
		return
	}
	ctxExpr := doneReceiver(c.pass, clause.Comm)
	if ctxExpr == nil {
		return
	}
	for _, stmt := range clause.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != nres {
				return true
			}
			last := ret.Results[nres-1]
			if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
				var buf strings.Builder
				_ = printer.Fprint(&buf, c.pass.Fset, ctxExpr) //reconlint:allow errflow printing to a Builder cannot fail
				c.pass.Reportf(last.Pos(),
					"cancellation observed via <-%s.Done() but nil returned: return %s.Err() so callers see it",
					buf.String(), buf.String())
			}
			return true
		})
	}
}

// doneReceiver extracts ctx from a `<-ctx.Done()` comm statement.
func doneReceiver(pass *analysis.Pass, comm ast.Stmt) ast.Expr {
	var recv ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	un, ok := ast.Unparen(recv).(*ast.UnaryExpr)
	if !ok || un.Op != token.ARROW {
		return nil
	}
	call, ok := ast.Unparen(un.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return nil
	}
	if !dataflow.IsContextType(pass.TypeOf(sel.X)) {
		return nil
	}
	return sel.X
}

// calleeLabel names a call for diagnostics.
func calleeLabel(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := pass.FuncOf(call); fn != nil {
		return fn.Name()
	}
	return "call"
}
