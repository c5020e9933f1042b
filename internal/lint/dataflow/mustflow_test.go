package dataflow

import (
	"go/ast"
	"maps"
	"sort"
	"strings"
	"testing"
)

// TestForwardMust runs the driver on small bodies with a toy lockset:
// lock(x, site) adds x held from site, unlock(x) drops it, and at(n)
// probes the set before it. A probe the driver never reaches reads
// "unreached".
func TestForwardMust(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       map[string]string
	}{
		{"held on one branch only", `
	if c {
		lock(a, 1)
	}
	at(1)
	if c {
		lock(a, 2)
	} else {
		lock(a, 3)
	}
	at(2)`,
			// Both branches hold a at the second join; the first
			// predecessor's acquisition site is the one kept.
			map[string]string{"1": "", "2": "a@2"}},
		{"loop releases and retakes", `
	lock(a, 1)
	for c {
		at(1)
		unlock(a)
		at(2)
		lock(a, 2)
	}
	at(3)`,
			map[string]string{"1": "a@1", "2": "", "3": "a@1"}},
		{"goto back into a loop", `
	lock(a, 1)
L:
	at(1)
	if c {
		unlock(a)
		goto L
	}
	at(2)`,
			// The first pass reaches L from above only, holding a; the
			// back edge, reached later, takes it away again.
			map[string]string{"1": "", "2": ""}},
		{"block no path reaches", `
	lock(a, 1)
	goto L
	at(1)
	unlock(a)
L:
	at(2)`,
			// The dead block's release does not weaken the join at L.
			map[string]string{"1": "unreached", "2": "a@1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, body := parseBody(t, tc.body)
			cfg := BuildCFG(body)
			before := ForwardMust(cfg, toyLockStep)
			got := make(map[string]string)
			for _, blk := range cfg.Blocks {
				for _, n := range blk.Nodes {
					name, args := toyCall(n)
					if name != "at" {
						continue
					}
					held, ok := before[n]
					if !ok {
						got[args[0]] = "unreached"
						continue
					}
					var parts []string
					for class, site := range held {
						parts = append(parts, class+"@"+site)
					}
					sort.Strings(parts)
					got[args[0]] = strings.Join(parts, " ")
				}
			}
			if !maps.Equal(got, tc.want) {
				t.Errorf("sets before the probes = %v, want %v", got, tc.want)
			}
		})
	}
}

// toyLockStep is the toy lockset's step: it copies the set on a lock or
// unlock and leaves its argument as it is.
func toyLockStep(n ast.Node, held map[string]string) map[string]string {
	switch name, args := toyCall(n); name {
	case "lock":
		held = maps.Clone(held)
		held[args[0]] = args[1]
	case "unlock":
		held = maps.Clone(held)
		delete(held, args[0])
	}
	return held
}

// toyCall splits a statement f(x, 1) into "f" and ["x", "1"].
func toyCall(n ast.Node) (string, []string) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return "", nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", nil
	}
	var args []string
	for _, a := range call.Args {
		switch a := a.(type) {
		case *ast.Ident:
			args = append(args, a.Name)
		case *ast.BasicLit:
			args = append(args, a.Value)
		}
	}
	return fun.Name, args
}
