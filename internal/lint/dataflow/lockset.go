package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// Lock identifies one mutex a function can hold. Root is the object of
// the base identifier the lock was reached through (a method receiver,
// a local, a parameter, or a package-level var); Path is the selector
// path from it ("mu" for r.mu, "" for a package-level or embedded
// mutex locked directly). Class is the instance-insensitive identity
// used for cross-function lock-order comparison: "pkg.Type.mu" for a
// field lock, "pkg.var" or "pkg.var.mu" for a package-level one, and a
// position-qualified key for function-local mutexes.
type Lock struct {
	Root   types.Object
	Path   string
	Class  string
	Reader bool // RLock acquisition (same class; mode kept for messages)
}

// HeldLock is one entry of a LockSet: the lock plus the acquisition
// site it entered the set through.
type HeldLock struct {
	Lock Lock
	Pos  token.Pos
	// acquire distinguishes Lock from Unlock when HeldLock doubles as
	// the classification result of one sync call site.
	acquire bool
}

// classifyLockCall decides whether call is a Lock/RLock/Unlock/RUnlock
// on a sync.Mutex or sync.RWMutex (directly or through embedding) and
// returns the lock identity. TryLock counts as an acquire: the lockset
// becomes may-hold, which is the conservative direction for ordering.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (HeldLock, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return HeldLock{}, false
	}
	var acquire, reader bool
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		acquire = true
	case "RLock", "TryRLock":
		acquire, reader = true, true
	case "Unlock":
	case "RUnlock":
		reader = true
	default:
		return HeldLock{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return HeldLock{}, false
	}
	lk, ok := lockIdentity(info, sel.X)
	if !ok {
		return HeldLock{}, false
	}
	lk.Reader = reader
	return HeldLock{Lock: lk, acquire: acquire, Pos: call.Pos()}, true
}

// lockIdentity resolves the mutex expression (the X of x.Lock()) to a
// Lock. Supported shapes: ident (local/pkg-level mutex or struct with
// embedded mutex), ident.field, ident.field.field (one struct hop).
func lockIdentity(info *types.Info, e ast.Expr) (Lock, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return Lock{}, false
		}
		return Lock{Root: obj, Path: "", Class: lockClass(obj, "")}, true
	case *ast.SelectorExpr:
		var path []string
		base := ast.Expr(e)
		for {
			s, ok := ast.Unparen(base).(*ast.SelectorExpr)
			if !ok {
				break
			}
			path = append([]string{s.Sel.Name}, path...)
			base = s.X
		}
		id, ok := ast.Unparen(base).(*ast.Ident)
		if !ok {
			return Lock{}, false
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return Lock{}, false
		}
		p := strings.Join(path, ".")
		return Lock{Root: obj, Path: p, Class: lockClass(obj, p)}, true
	}
	return Lock{}, false
}

// lockClass renders the instance-insensitive class key for a lock.
func lockClass(root types.Object, path string) string {
	suffix := ""
	if path != "" {
		suffix = "." + path
	}
	// Package-level var: name it by package path (instance = class).
	if v, ok := root.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Name() + "." + v.Name() + suffix
	}
	// Field path rooted at a typed value (receiver, param, local): key by
	// the root's named type, so r.mu and m.mu of the same type share a
	// class.
	if named, ok := deref(root.Type()).(*types.Named); ok && path != "" {
		name := named.Obj().Name()
		if named.Obj().Pkg() != nil {
			name = named.Obj().Pkg().Name() + "." + name
		}
		return name + suffix
	}
	// Function-local mutex value: class is the declaration site.
	return fmt.Sprintf("local:%d.%s", root.Pos(), root.Name())
}

// LockSet is a must-hold set of lock classes mapped to the acquisition
// detail (the Lock and its site).
type LockSet map[string]HeldLock

// SortedClasses returns the held classes in deterministic order.
func (s LockSet) SortedClasses() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FuncLocks is the flow-sensitive lockset result for one function body:
// the must-hold lockset *before* each statement/expression node of its
// CFG, plus every acquisition site with the set held at that moment.
// The sets are ForwardMust's and are read-only.
type FuncLocks struct {
	CFG *CFG
	// Before maps each reached CFG node to the lockset in force when it
	// executes.
	Before map[ast.Node]LockSet
	// Acquires lists every Lock/RLock call with the lockset held at it.
	Acquires []Acquisition
}

// Acquisition is one Lock/RLock call and the locks already held there.
type Acquisition struct {
	Lock Lock
	Pos  token.Pos
	Held LockSet
}

// AnalyzeLocks runs the reaching-lockset dataflow over one function
// body on ForwardMust. Deferred Unlock/RUnlock calls do not kill the
// set: they run after the body, which no node's set covers. Calls to
// functions are not transparent: a callee that acquires and releases
// internally does not change the caller's set (Go locks are not
// reentrant, so the balanced idiom dominates; cross-function holding is
// handled by the lock-order summaries, not here).
func AnalyzeLocks(info *types.Info, body *ast.BlockStmt) *FuncLocks {
	cfg := BuildCFG(body)
	fl := &FuncLocks{CFG: cfg, Before: ForwardMust(cfg, func(n ast.Node, held LockSet) LockSet {
		return transferLocks(info, n, held)
	})}

	// Acquisition sites with held-at sets, in source order.
	seen := make(map[token.Pos]bool)
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			walkNodeCalls(n, func(call *ast.CallExpr) {
				op, ok := classifyLockCall(info, call)
				if !ok || !op.acquire || seen[op.Pos] {
					return
				}
				seen[op.Pos] = true
				fl.Acquires = append(fl.Acquires, Acquisition{Lock: op.Lock, Pos: op.Pos, Held: fl.Before[n]})
			})
		}
	}
	sort.Slice(fl.Acquires, func(i, j int) bool { return fl.Acquires[i].Pos < fl.Acquires[j].Pos })

	return fl
}

// transferLocks applies one node's lock effects to a lockset. Deferred
// calls have no mid-body effect (handled at exit); function literals
// are opaque (their bodies run later, on another goroutine or not at
// all).
func transferLocks(info *types.Info, n ast.Node, cur LockSet) LockSet {
	if _, ok := n.(*ast.DeferStmt); ok {
		return cur
	}
	next := cur
	walkNodeCalls(n, func(call *ast.CallExpr) {
		op, ok := classifyLockCall(info, call)
		if !ok {
			return
		}
		next = maps.Clone(next)
		if op.acquire {
			next[op.Lock.Class] = op
		} else {
			delete(next, op.Lock.Class)
		}
	})
	return next
}

// walkNodeCalls visits the call expressions inside one CFG node without
// descending into function literals or defer/go payloads (those do not
// execute at this program point).
func walkNodeCalls(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			visit(x)
		}
		_ = x
		return true
	})
}
