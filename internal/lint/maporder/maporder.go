// Package maporder implements the reconlint analyzer that catches
// order-dependent work performed while ranging over a map.
//
// Go randomizes map iteration order, so any computation inside
// `for k, v := range m` whose result depends on visit order wobbles
// between runs — exactly the bug class of the power.TotalJoules float
// summation that broke EnergyJoules reproducibility in the last bit.
// The analyzer reports, inside a range-over-map body:
//
//   - floating-point accumulation involving the iteration variables
//     (float addition is not associative, so visit order changes the
//     rounding),
//   - appends of iteration-derived values to a slice, unless that
//     slice is later passed to a sort.*/slices.Sort* call in the same
//     function (the collect-then-sort idiom, e.g. the outage sum in
//     grid.Engine.finish, is the sanctioned fix),
//   - output and metrics emission (Print/Write/AddRow/Observe/…) that
//     mentions the iteration variables,
//   - channel sends of iteration-derived values.
//
// The fix is sorted-key iteration: collect the keys, sort them, then
// range over the sorted slice.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the maporder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag order-dependent float accumulation, appends, and output inside range-over-map loops",
	Run:  run,
}

// emitNames are callee names treated as output or metrics emission.
var emitNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true, "Observe": true, "Record": true, "Emit": true,
	"Log": true, "Logf": true, "Fatal": true, "Fatalf": true,
}

// sortCallees maps qualified sort-function names that make a collected
// slice order-independent again.
var sortCallees = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := sortedSlices(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.TypeOf(rs.X); t == nil || !isMap(t) {
					return true
				}
				checkBody(pass, rs, sorted)
				return true
			})
		}
	}
	return nil, nil
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortedSlices collects the objects of every slice passed to a
// recognized sort call anywhere in the function body.
func sortedSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !sortCallees[name] {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// calleeName renders a call's callee as pkg.Func or recv-less Name.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return ""
}

// checkBody inspects one range-over-map body for order-dependent work.
func checkBody(pass *analysis.Pass, rs *ast.RangeStmt, sorted map[types.Object]bool) {
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			loopVars[obj] = true
		}
	}
	mentions := func(e ast.Node) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pass.ObjectOf(id)] {
				found = true
				return false
			}
			return !found
		})
		return found
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, st, mentions, sorted)
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				checkEmit(pass, call, mentions)
			}
		case *ast.SendStmt:
			if mentions(st.Value) || mentions(st.Chan) {
				pass.Reportf(st.Arrow,
					"channel send inside range over map: receive order depends on map iteration order; iterate sorted keys instead")
			}
		}
		return true
	})
}

// checkAssign flags float accumulation and unsorted appends.
func checkAssign(pass *analysis.Pass, st *ast.AssignStmt, mentions func(ast.Node) bool, sorted map[types.Object]bool) {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(st.Lhs) == 1 && isFloat(pass.TypeOf(st.Lhs[0])) && mentions(st.Rhs[0]) {
			pass.Reportf(st.TokPos,
				"floating-point accumulation inside range over map: float addition is not associative, so map iteration order changes the result; iterate sorted keys, or index per-kind data by an array")
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range st.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
						checkAppend(pass, st, i, call, mentions, sorted)
						continue
					}
				}
			}
			// x = x + f(v) style float accumulation.
			if i < len(st.Lhs) && st.Tok == token.ASSIGN {
				if bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr); ok && isFloat(pass.TypeOf(st.Lhs[i])) &&
					sameIdent(pass, st.Lhs[i], bin.X) && mentions(bin.Y) {
					pass.Reportf(st.TokPos,
						"floating-point accumulation inside range over map: float addition is not associative, so map iteration order changes the result; iterate sorted keys, or index per-kind data by an array")
				}
			}
		}
	}
}

// checkAppend flags `s = append(s, …loop-derived…)` unless s is sorted
// later in the same function.
func checkAppend(pass *analysis.Pass, st *ast.AssignStmt, i int, call *ast.CallExpr, mentions func(ast.Node) bool, sorted map[types.Object]bool) {
	derived := false
	for _, arg := range call.Args[1:] {
		if mentions(arg) {
			derived = true
			break
		}
	}
	if !derived {
		return
	}
	if i < len(st.Lhs) {
		// The collect-then-sort idiom: the target (a variable, or the
		// field of one) is passed to a sort call later in the function.
		var target *ast.Ident
		switch lhs := ast.Unparen(st.Lhs[i]).(type) {
		case *ast.Ident:
			target = lhs
		case *ast.SelectorExpr:
			target = lhs.Sel
		}
		if target != nil {
			if obj := pass.ObjectOf(target); obj != nil && sorted[obj] {
				return
			}
		}
	}
	pass.Reportf(call.Pos(),
		"append of map-iteration values in map order: element order will differ between runs; collect into the slice and sort it, or iterate sorted keys")
}

// checkEmit flags output/metrics calls that mention the loop variables.
func checkEmit(pass *analysis.Pass, call *ast.CallExpr, mentions func(ast.Node) bool) {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return
	}
	if !emitNames[name] {
		return
	}
	for _, arg := range call.Args {
		if mentions(arg) {
			pass.Reportf(call.Pos(),
				"%s inside range over map emits in map iteration order: output will differ between runs; iterate sorted keys", name)
			return
		}
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// sameIdent reports whether a and b are the same resolved identifier.
func sameIdent(pass *analysis.Pass, a, b ast.Expr) bool {
	ia, ok1 := ast.Unparen(a).(*ast.Ident)
	ib, ok2 := ast.Unparen(b).(*ast.Ident)
	if !ok1 || !ok2 {
		return false
	}
	oa, ob := pass.ObjectOf(ia), pass.ObjectOf(ib)
	return oa != nil && oa == ob
}
