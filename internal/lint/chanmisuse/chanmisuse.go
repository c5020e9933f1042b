// Package chanmisuse implements the reconlint analyzer for channel
// protocol violations the runtime only surfaces as hangs or panics:
//
//   - send or close on a possibly-nil channel: a function-local channel
//     declared without make (var ch chan T) that can reach a send or a
//     close before every path assigns it. A nil send blocks forever; a
//     nil close panics. Decided on the dataflow CFG, so a make in one
//     branch does not excuse a send reachable through the other.
//   - close by non-owner: closing a channel the function received as a
//     parameter. Go's ownership convention is that the goroutine that
//     creates a channel closes it; a callee closing its caller's
//     channel invites double-close panics and send-on-closed races.
//   - send under a lock the receiver needs: a send executed while a
//     mutex is held (must-lockset), where some receive of the same
//     channel class runs under an intersecting lockset in a function
//     that may execute in parallel (the MHP approximation). The sender
//     blocks holding the lock; the receiver blocks wanting it.
//
// Escape hatch: //reconlint:allow chanmisuse <reason> — e.g. a close
// helper that is documented as the owner's delegate.
package chanmisuse

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer is the chanmisuse analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "chanmisuse",
	Doc:  "no send/close on possibly-nil channels, no close of caller-owned channels, no send while holding a lock the receiver's lockset intersects",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := dataflow.Resolve(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo)
	lg := g.LockGraph()
	mhp := g.MHP()

	// Receive sites across the whole graph, keyed by channel class
	// (element type), each with its must-lockset — the partners the
	// send-under-lock check pairs against.
	recvs := collectReceives(g, lg)

	for _, node := range g.SortedFuncs() {
		if node.Pkg != pass.Pkg {
			continue
		}
		checkNilChannels(pass, node)
		checkCloseOwnership(pass, node)
		checkSendUnderLock(pass, g, lg, mhp, node, recvs)
	}
	return nil, nil
}

// --- possibly-nil send/close ---------------------------------------

// checkNilChannels runs a definite-assignment dataflow (a step on
// dataflow.ForwardMust) for the function's channel-typed locals declared
// nil (var ch chan T), and reports sends/closes reachable with the local
// possibly still nil.
func checkNilChannels(pass *analysis.Pass, node *dataflow.FuncNode) {
	info := node.Info

	// nilDecls: channel locals introduced with no initializer.
	nilDecls := make(map[types.Object]bool)
	ast.Inspect(node.Decl.Body, func(x ast.Node) bool {
		decl, ok := x.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
					nilDecls[obj] = true
				}
			}
		}
		return true
	})
	if len(nilDecls) == 0 {
		return
	}

	// Must-assigned: the nil-declared locals every path has assigned.
	cfg := dataflow.BuildCFG(node.Decl.Body)
	before := dataflow.ForwardMust(cfg, func(n ast.Node, assigned map[types.Object]bool) map[types.Object]bool {
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			as, ok := x.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.ObjectOf(id); nilDecls[obj] && !assigned[obj] {
					assigned = maps.Clone(assigned)
					assigned[obj] = true
				}
			}
			return true
		})
		return assigned
	})

	report := func(n ast.Node, ch ast.Expr, verb string) {
		id, ok := ast.Unparen(ch).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil || !nilDecls[obj] {
			return
		}
		if before[n][obj] {
			return
		}
		what := "blocks forever"
		if verb == "close" {
			what = "panics"
		}
		pass.Reportf(n.Pos(),
			"%s on %s, which is declared without make and may still be nil here: a nil-channel %s %s",
			verb, id.Name, verb, what)
	}
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			node := n
			ast.Inspect(node, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.SendStmt:
					report(node, x.Chan, "send")
				case *ast.CallExpr:
					if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
						if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && len(x.Args) == 1 {
							report(node, x.Args[0], "close")
						}
					}
				}
				return true
			})
		}
	}
}

// --- close ownership -----------------------------------------------

// checkCloseOwnership reports close(ch) where ch is a parameter: the
// channel's creator owns closing it.
func checkCloseOwnership(pass *analysis.Pass, node *dataflow.FuncNode) {
	info := node.Info
	params := make(map[types.Object]bool)
	if node.Decl.Type.Params != nil {
		for _, f := range node.Decl.Type.Params.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
						params[obj] = true
					}
				}
			}
		}
	}
	if len(params) == 0 {
		return
	}
	ast.Inspect(node.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" {
			return true
		}
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin || len(call.Args) != 1 {
			return true
		}
		argID, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.ObjectOf(argID); obj != nil && params[obj] {
			pass.Reportf(call.Pos(),
				"close of parameter channel %s: the creating goroutine owns the close; closing a caller's channel risks double-close panics and send-on-closed races",
				argID.Name)
		}
		return true
	})
}

// --- send under intersecting lockset -------------------------------

// recvSite is one channel receive with the must-lockset at it.
type recvSite struct {
	fn    *types.Func
	held  dataflow.LockSet
	class string
}

// collectReceives gathers every receive/range-over-channel in the
// graph with the lockset in force, keyed by channel class.
func collectReceives(g *dataflow.Graph, lg *dataflow.LockGraph) map[string][]recvSite {
	out := make(map[string][]recvSite)
	for _, node := range g.SortedFuncs() {
		fl := lg.Locks[node.Fn]
		if fl == nil {
			continue
		}
		info := node.Info
		for _, blk := range fl.CFG.Blocks {
			for _, n := range blk.Nodes {
				held := fl.Before[n]
				ast.Inspect(n, func(x ast.Node) bool {
					if _, ok := x.(*ast.FuncLit); ok {
						return false
					}
					var chX ast.Expr
					switch x := x.(type) {
					case *ast.UnaryExpr:
						if x.Op == token.ARROW {
							chX = x.X
						}
					case *ast.RangeStmt:
						chX = x.X
					}
					if chX == nil {
						return true
					}
					class := chanClass(info, chX)
					if class == "" {
						return true
					}
					out[class] = append(out[class], recvSite{fn: node.Fn, held: held, class: class})
					return true
				})
			}
		}
	}
	return out
}

// chanClass keys a channel expression by element type, mirroring the
// provenance layer's channel keying.
func chanClass(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return ""
	}
	return types.TypeString(ch.Elem(), nil)
}

// checkSendUnderLock pairs this function's sends-under-lock with
// known receives of the same channel class under intersecting locksets
// in functions that may run in parallel.
func checkSendUnderLock(pass *analysis.Pass, g *dataflow.Graph, lg *dataflow.LockGraph, mhp *dataflow.MHPInfo, node *dataflow.FuncNode, recvs map[string][]recvSite) {
	fl := lg.Locks[node.Fn]
	if fl == nil {
		return
	}
	info := node.Info
	for _, blk := range fl.CFG.Blocks {
		for _, n := range blk.Nodes {
			held := fl.Before[n]
			if len(held) == 0 {
				continue
			}
			send, ok := n.(*ast.SendStmt)
			if !ok {
				continue
			}
			class := chanClass(info, send.Chan)
			if class == "" {
				continue
			}
			for _, r := range recvs[class] {
				if r.fn == node.Fn {
					continue // same body: sequential, not parallel
				}
				if !mhp.MayHappenInParallel(node.Fn, r.fn) {
					continue
				}
				common := ""
				for cls := range held {
					if _, ok := r.held[cls]; ok {
						common = cls
						break
					}
				}
				if common == "" {
					continue
				}
				pass.Reportf(send.Pos(),
					"send on chan %s while holding %s, but %s receives from this channel under the same lock: if the buffer is full this deadlocks (sender holds what the receiver needs)",
					class, common, r.fn.Name())
				break
			}
		}
	}
}
