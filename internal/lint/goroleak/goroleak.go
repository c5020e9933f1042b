// Package goroleak implements the reconlint analyzer that detects
// unowned goroutines on the engine's entry paths.
//
// The sweep/engine contract is that RunSweep/RunScenario return only
// after every goroutine they started has finished (or is provably
// cancellable): a goroutine that outlives its spawner leaks memory per
// call in a long-running control plane and races the next run's state.
// The analyzer walks every `go` statement in functions reachable from
// an entry point (dataflow.IsEntry: main.main, or a name starting with
// Run or Sweep) and demands evidence of ownership, any of:
//
//   - cancellation: the goroutine references a context.Context (ctx
//     passed in, ctx.Done() selected on) so the spawner's caller can
//     stop it;
//   - join by WaitGroup: the goroutine calls Done/Add(-1) on a
//     sync.WaitGroup that some function in the analyzed set Waits on;
//   - join by channel: the goroutine sends on or closes a channel, or
//     receives from one, that the spawning function also touches from
//     the other side (worker-pool feed/drain idiom);
//   - join by handle: `go f(...)` where f's body itself satisfies one
//     of the above (checked one level deep through the call graph).
//
// A goroutine with none of these is reported at the `go` statement.
// Fire-and-forget daemons that are intentional (a pprof server, a
// process-lifetime logger) carry //reconlint:allow goroleak <reason>.
package goroleak

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer is the goroleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "goroutines on Run*/Sweep*/main entry paths must be cancellable (ctx) or joined (WaitGroup, channel) before return",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := dataflow.Resolve(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo)
	mhp := g.MHP()

	// Entry points: this package's main.main/Run*/Sweep* declarations.
	var entries []*types.Func
	for _, node := range g.SortedFuncs() {
		if node.Pkg != pass.Pkg {
			continue
		}
		if dataflow.IsEntry(node.Fn) {
			entries = append(entries, node.Fn)
		}
	}
	if len(entries) == 0 {
		return nil, nil
	}
	reach := g.Reachable(entries)

	for _, site := range mhp.Spawns {
		if site.Fn.Pkg() != pass.Pkg || !reach[site.Fn] {
			continue
		}
		node := g.Node(site.Fn)
		if node == nil {
			continue
		}
		if ownedSpawn(pass, g, node, site) {
			continue
		}
		pass.Reportf(site.Stmt.Pos(),
			"goroutine started on the %s entry path is neither ctx-cancellable nor joined (WaitGroup/channel) before return; it can outlive the run",
			site.Fn.Name())
	}
	return nil, nil
}

// ownedSpawn decides whether one go statement shows an ownership
// pattern.
func ownedSpawn(pass *analysis.Pass, g *dataflow.Graph, spawner *dataflow.FuncNode, site dataflow.SpawnSite) bool {
	gs := site.Stmt

	// Evidence scope: the go call's arguments plus, for a literal, its
	// body.
	var bodies []ast.Node
	for _, arg := range gs.Call.Args {
		bodies = append(bodies, arg)
	}
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		bodies = append(bodies, lit.Body)
	} else {
		bodies = append(bodies, gs.Call.Fun)
	}

	info := spawner.Info
	if referencesContext(pass, info, bodies) {
		return true
	}
	if joinedByWaitGroup(info, spawner.Decl.Body, bodies) {
		return true
	}
	if joinedByChannel(info, spawner.Decl.Body, gs, bodies) {
		return true
	}
	// go f(...): look one level into f's body for the same evidence —
	// the common case of a named worker function taking ctx/wg/chan
	// parameters is already covered by the argument scan above, so this
	// catches workers that reach package-level state.
	for _, target := range site.Targets {
		tn := g.Node(target)
		if tn == nil {
			continue
		}
		tb := []ast.Node{tn.Decl.Body}
		if referencesContext(pass, tn.Info, tb) {
			return true
		}
	}
	return false
}

// referencesContext reports whether any node mentions a value of type
// context.Context.
func referencesContext(pass *analysis.Pass, info *types.Info, nodes []ast.Node) bool {
	found := false
	for _, n := range nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if found {
				return false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				return true
			}
			if dataflow.IsContextType(obj.Type()) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// joinedByWaitGroup reports whether the goroutine calls Done (or
// Add(-1)) on a sync.WaitGroup object that the spawning function's body
// Waits on.
func joinedByWaitGroup(info *types.Info, spawnerBody *ast.BlockStmt, goroutine []ast.Node) bool {
	done := waitGroupCalls(info, goroutine, "Done")
	if len(done) == 0 {
		return false
	}
	waited := waitGroupCalls(info, []ast.Node{spawnerBody}, "Wait")
	for obj := range done {
		if waited[obj] {
			return true
		}
	}
	return false
}

// waitGroupCalls collects the base objects of wg.<method>() calls on
// sync.WaitGroup values within nodes.
func waitGroupCalls(info *types.Info, nodes []ast.Node, method string) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, n := range nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != method {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return true
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
			return true
		})
	}
	return out
}

// joinedByChannel reports whether the goroutine and its spawner sit on
// opposite ends of one channel object: the goroutine sends/closes what
// the spawner receives or ranges over, or the goroutine receives/ranges
// what the spawner sends or closes.
func joinedByChannel(info *types.Info, spawnerBody *ast.BlockStmt, gs *ast.GoStmt, goroutine []ast.Node) bool {
	goSend, goRecv := chanEnds(info, goroutine, nil)
	spSend, spRecv := chanEnds(info, []ast.Node{spawnerBody}, gs)
	for obj := range goSend {
		if spRecv[obj] {
			return true
		}
	}
	for obj := range goRecv {
		if spSend[obj] {
			return true
		}
	}
	return false
}

// chanEnds collects the channel objects sent-to/closed (send side) and
// received-from/ranged-over (recv side) in nodes, skipping the subtree
// rooted at skip (the go statement itself, when scanning its spawner).
func chanEnds(info *types.Info, nodes []ast.Node, skip ast.Node) (send, recv map[types.Object]bool) {
	send = make(map[types.Object]bool)
	recv = make(map[types.Object]bool)
	chanObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return nil
		}
		if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
			return nil
		}
		return obj
	}
	for _, n := range nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if x == skip {
				return false
			}
			switch x := x.(type) {
			case *ast.SendStmt:
				if obj := chanObj(x.Chan); obj != nil {
					send[obj] = true
				}
			case *ast.UnaryExpr:
				if x.Op.String() == "<-" {
					if obj := chanObj(x.X); obj != nil {
						recv[obj] = true
					}
				}
			case *ast.RangeStmt:
				if obj := chanObj(x.X); obj != nil {
					recv[obj] = true
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
					if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && len(x.Args) == 1 {
						// Closing counts as the send side (the owner
						// signalling completion).
						if obj := chanObj(x.Args[0]); obj != nil {
							send[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	return send, recv
}
