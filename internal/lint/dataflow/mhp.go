package dataflow

import (
	"go/ast"
	"go/types"
	"sort"
)

// SpawnSite is one `go` statement: the function whose body contains it,
// the statement itself, and the statically-resolvable functions the new
// goroutine starts in (the called function for `go f(...)`; for
// `go func(){...}()` the literal's direct static callees).
type SpawnSite struct {
	Fn      *types.Func
	Stmt    *ast.GoStmt
	Targets []*types.Func
}

// MHPInfo is the may-happen-in-parallel approximation seeded from `go`
// statements: a function is Concurrent when it can run on a spawned
// goroutine (it is a spawn target or reachable from one through call
// edges), and a Spawner when a goroutine launch is reachable from it.
// Two program points may run in parallel only if at least one of their
// enclosing functions is Concurrent — the gate the chanmisuse analyzer
// applies before pairing a send's lockset with a receive's.
type MHPInfo struct {
	Spawns []SpawnSite
	// Concurrent marks functions that may execute on a spawned goroutine.
	Concurrent map[*types.Func]bool
	// Spawner marks functions from which a `go` statement is reachable
	// (the spawn-site call chains of the issue statement): their
	// continuations run in parallel with the spawned work.
	Spawner map[*types.Func]bool
}

// MHP computes (once per Graph) the spawn sites and the
// may-run-concurrently function sets.
func (g *Graph) MHP() *MHPInfo {
	g.mhpOnce.Do(func() { g.mhp = g.buildMHP() })
	return g.mhp
}

// buildMHP closes the spawn targets over callees (Concurrent) and the
// spawning functions over callers (Spawner): anything that transitively
// calls a spawning function has the spawned goroutine running alongside
// its own continuation.
func (g *Graph) buildMHP() *MHPInfo {
	m := &MHPInfo{}
	var targets, spawners []*types.Func
	for _, n := range g.SortedFuncs() {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			gs, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			site := SpawnSite{Fn: n.Fn, Stmt: gs, Targets: g.spawnTargets(n.Info, gs)}
			m.Spawns = append(m.Spawns, site)
			spawners = append(spawners, n.Fn)
			targets = append(targets, site.Targets...)
			return true
		})
	}
	m.Concurrent = g.Reachable(targets)
	m.Spawner = g.closure(spawners, (*FuncNode).sortedCallers)
	return m
}

// spawnTargets resolves the functions a go statement starts: the static
// callee of `go f(...)`, or the static callees inside a `go func(){}()`
// literal's body (the literal itself is attributed to the enclosing
// declaration, so its calls stand in for it).
func (g *Graph) spawnTargets(info *types.Info, gs *ast.GoStmt) []*types.Func {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		var out []*types.Func
		seen := make(map[*types.Func]bool)
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := staticCallee(info, call); fn != nil && !seen[fn] {
				seen[fn] = true
				out = append(out, fn)
			}
			return true
		})
		sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
		return out
	}
	if fn := staticCallee(info, gs.Call); fn != nil {
		return []*types.Func{fn}
	}
	return nil
}

// MayHappenInParallel reports whether code in f and code in g can
// execute at the same time under the spawn-seeded approximation: one of
// them must be able to run on a spawned goroutine, and the other must
// either also run on one or have a live goroutine in flight (be a
// spawner or be concurrent itself).
func (m *MHPInfo) MayHappenInParallel(f, g *types.Func) bool {
	if m.Concurrent[f] && (m.Concurrent[g] || m.Spawner[g]) {
		return true
	}
	if m.Concurrent[g] && (m.Concurrent[f] || m.Spawner[f]) {
		return true
	}
	return false
}
