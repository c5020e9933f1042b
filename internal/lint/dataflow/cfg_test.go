package dataflow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"
)

// parseBody parses a function body given its statement list source.
func parseBody(t *testing.T, stmts string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	src := "package p\n\nfunc f() {\n" + stmts + "\n}\n"
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return fset, f.Decls[0].(*ast.FuncDecl).Body
}

// blockOf finds the unique block containing a node for which pred
// holds.
func blockOf(t *testing.T, cfg *CFG, fset *token.FileSet, pred func(ast.Node) bool) *Block {
	t.Helper()
	var found *Block
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			if pred(n) {
				if found != nil && found != blk {
					t.Fatalf("node matched in two blocks (%d and %d)", found.Index, blk.Index)
				}
				found = blk
			}
		}
	}
	if found == nil {
		t.Fatal("no block contains the node")
	}
	return found
}

// assignTo matches `name = ...` assignments.
func assignTo(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == name
	}
}

// reachable returns the blocks reachable from the entry.
func reachable(cfg *CFG) map[*Block]bool {
	seen := map[*Block]bool{cfg.Entry: true}
	queue := []*Block{cfg.Entry}
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return seen
}

func hasSucc(b, s *Block) bool {
	for _, x := range b.Succs {
		if x == s {
			return true
		}
	}
	return false
}

func TestCFGGotoForwardAndUnreachable(t *testing.T) {
	fset, body := parseBody(t, `
	x = 1
	goto L
	y = 2
L:
	z = 3
`)
	cfg := BuildCFG(body)
	gotoBlk := blockOf(t, cfg, fset, func(n ast.Node) bool {
		br, ok := n.(*ast.BranchStmt)
		return ok && br.Tok == token.GOTO
	})
	labelBlk := blockOf(t, cfg, fset, assignTo("z"))
	if !hasSucc(gotoBlk, labelBlk) {
		t.Errorf("goto block %d does not branch to label block %d", gotoBlk.Index, labelBlk.Index)
	}
	deadBlk := blockOf(t, cfg, fset, assignTo("y"))
	if len(deadBlk.Preds) != 0 {
		t.Errorf("statement after goto should be predecessor-less, has %d preds", len(deadBlk.Preds))
	}
	if reachable(cfg)[deadBlk] {
		t.Error("unreachable statement is reachable from entry")
	}
	if !reachable(cfg)[labelBlk] {
		t.Error("label target not reachable from entry")
	}
}

func TestCFGGotoBackward(t *testing.T) {
	fset, body := parseBody(t, `
L:
	x = 1
	if cond {
		goto L
	}
	y = 2
`)
	cfg := BuildCFG(body)
	gotoBlk := blockOf(t, cfg, fset, func(n ast.Node) bool {
		br, ok := n.(*ast.BranchStmt)
		return ok && br.Tok == token.GOTO
	})
	labelBlk := blockOf(t, cfg, fset, assignTo("x"))
	if !hasSucc(gotoBlk, labelBlk) {
		t.Errorf("backward goto not wired to its label block")
	}
	if !reachable(cfg)[blockOf(t, cfg, fset, assignTo("y"))] {
		t.Error("fallthrough path after conditional goto lost")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	fset, body := parseBody(t, `
outer:
	for {
		for {
			if cond {
				break outer
			}
			x = 1
		}
	}
	after = 9
`)
	cfg := BuildCFG(body)
	breakBlk := blockOf(t, cfg, fset, func(n ast.Node) bool {
		br, ok := n.(*ast.BranchStmt)
		return ok && br.Tok == token.BREAK && br.Label != nil
	})
	afterBlk := blockOf(t, cfg, fset, assignTo("after"))
	// break outer must reach the code after the outer loop without
	// passing through either loop head again.
	seen := map[*Block]bool{}
	queue := breakBlk.Succs
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		queue = append(queue, blk.Succs...)
	}
	if !seen[afterBlk] {
		t.Error("break outer does not lead to the statement after the labeled loop")
	}
	innerBody := blockOf(t, cfg, fset, assignTo("x"))
	if seen[innerBody] {
		t.Error("break outer leaks back into the inner loop body")
	}
	if !reachable(cfg)[afterBlk] {
		t.Error("code after labeled loop unreachable")
	}
}

func TestCFGLabeledContinue(t *testing.T) {
	fset, body := parseBody(t, `
outer:
	for i = 0; i < n; i++ {
		for {
			continue outer
		}
	}
	after = 1
`)
	cfg := BuildCFG(body)
	contBlk := blockOf(t, cfg, fset, func(n ast.Node) bool {
		br, ok := n.(*ast.BranchStmt)
		return ok && br.Tok == token.CONTINUE && br.Label != nil
	})
	postBlk := blockOf(t, cfg, fset, func(n ast.Node) bool {
		_, ok := n.(*ast.IncDecStmt)
		return ok
	})
	if !hasSucc(contBlk, postBlk) {
		t.Errorf("continue outer must target the outer loop's post block")
	}
	if !reachable(cfg)[blockOf(t, cfg, fset, assignTo("after"))] {
		t.Error("loop exit path lost")
	}
}

func TestCFGFallthrough(t *testing.T) {
	fset, body := parseBody(t, `
	switch x {
	case 1:
		a = 1
		fallthrough
	case 2:
		b = 2
	default:
		c = 3
	}
	after = 4
`)
	cfg := BuildCFG(body)
	caseOne := blockOf(t, cfg, fset, assignTo("a"))
	caseTwo := blockOf(t, cfg, fset, assignTo("b"))
	if !hasSucc(caseOne, caseTwo) {
		t.Error("fallthrough does not chain into the next case block")
	}
	afterBlk := blockOf(t, cfg, fset, assignTo("after"))
	for _, leaf := range []*Block{caseTwo, blockOf(t, cfg, fset, assignTo("c"))} {
		if !hasSucc(leaf, afterBlk) {
			t.Errorf("case block %d does not join the code after the switch", leaf.Index)
		}
	}
}

func TestCFGSelect(t *testing.T) {
	fset, body := parseBody(t, `
	select {
	case v = <-ch:
		a = 1
	case ch2 <- 1:
		b = 2
	}
	after = 3
`)
	cfg := BuildCFG(body)
	afterBlk := blockOf(t, cfg, fset, assignTo("after"))
	for _, name := range []string{"a", "b"} {
		clause := blockOf(t, cfg, fset, assignTo(name))
		if !hasSucc(clause, afterBlk) {
			t.Errorf("select clause %q does not reach the join", name)
		}
	}
	if !reachable(cfg)[afterBlk] {
		t.Error("code after select unreachable")
	}
}

func TestCFGInfiniteLoopExitOnlyViaBreak(t *testing.T) {
	fset, body := parseBody(t, `
	for {
		x = 1
	}
	after = 2
`)
	cfg := BuildCFG(body)
	if reachable(cfg)[blockOf(t, cfg, fset, assignTo("after"))] {
		t.Error("code after a break-less for{} must be unreachable")
	}
}

func TestCFGRangeLoop(t *testing.T) {
	fset, body := parseBody(t, `
	for k = range m {
		x = 1
		if cond {
			continue
		}
		y = 2
	}
	after = 3
`)
	cfg := BuildCFG(body)
	head := blockOf(t, cfg, fset, func(n ast.Node) bool { _, ok := n.(*ast.RangeStmt); return ok })
	contBlk := blockOf(t, cfg, fset, func(n ast.Node) bool {
		br, ok := n.(*ast.BranchStmt)
		return ok && br.Tok == token.CONTINUE
	})
	if !hasSucc(contBlk, head) {
		t.Error("continue in a range loop must return to the range head")
	}
	if !reachable(cfg)[blockOf(t, cfg, fset, assignTo("after"))] {
		t.Error("range loop exit path lost")
	}
}

// --- randomized property test --------------------------------------

// stmtGen emits random nested control flow over numbered leaf
// assignments (s0 = 0, s1 = 1, ...), with breaks and continues inside
// loops. The shapes parse without type-checking, which is all BuildCFG
// needs.
type stmtGen struct {
	r     *rand.Rand
	sb    strings.Builder
	count int
}

func (g *stmtGen) leaf(indent string) {
	fmt.Fprintf(&g.sb, "%ss%d = %d\n", indent, g.count, g.count)
	g.count++
}

func (g *stmtGen) stmts(indent string, depth, inLoop int) {
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		choice := g.r.Intn(10)
		switch {
		case depth == 0 || choice < 4:
			g.leaf(indent)
		case choice < 6:
			fmt.Fprintf(&g.sb, "%sif c%d {\n", indent, g.r.Intn(5))
			g.stmts(indent+"\t", depth-1, inLoop)
			if g.r.Intn(2) == 0 {
				fmt.Fprintf(&g.sb, "%s} else {\n", indent)
				g.stmts(indent+"\t", depth-1, inLoop)
			}
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		case choice < 8:
			fmt.Fprintf(&g.sb, "%sfor i%d = 0; i%d < 10; i%d++ {\n", indent, depth, depth, depth)
			g.stmts(indent+"\t", depth-1, inLoop+1)
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		case choice == 8 && inLoop > 0:
			// Terminates the list early; later statements become
			// unreachable, which the CFG must still place exactly once.
			if g.r.Intn(2) == 0 {
				fmt.Fprintf(&g.sb, "%sbreak\n", indent)
			} else {
				fmt.Fprintf(&g.sb, "%scontinue\n", indent)
			}
		default:
			fmt.Fprintf(&g.sb, "%sswitch t%d {\n%scase 1:\n", indent, depth, indent)
			g.stmts(indent+"\t", depth-1, inLoop)
			fmt.Fprintf(&g.sb, "%sdefault:\n", indent)
			g.stmts(indent+"\t", depth-1, inLoop)
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		}
	}
}

// TestCFGStatementOrderProperty checks two invariants over randomly
// generated (fixed-seed) nested control flow:
//
//  1. every leaf statement of the source appears in the CFG exactly
//     once, reachable or not;
//  2. within each block, nodes appear in strictly increasing source
//     position — a block is a straight-line run.
func TestCFGStatementOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := &stmtGen{r: rand.New(rand.NewSource(seed))}
		g.stmts("\t", 3, 0)
		src := g.sb.String()
		fset, body := parseBody(t, src)
		cfg := BuildCFG(body)

		// Count leaf assignments in the AST.
		wantLeaves := map[string]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			if assignTo("")(n) {
				return true
			}
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && strings.HasPrefix(id.Name, "s") {
					wantLeaves[id.Name] = true
				}
			}
			return true
		})

		// Each leaf appears in exactly one block, exactly once.
		gotLeaves := map[string]int{}
		for _, blk := range cfg.Blocks {
			for _, n := range blk.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
					if id, ok := as.Lhs[0].(*ast.Ident); ok && strings.HasPrefix(id.Name, "s") {
						gotLeaves[id.Name]++
					}
				}
			}
		}
		if len(gotLeaves) != len(wantLeaves) {
			t.Fatalf("seed %d: CFG holds %d distinct leaves, source has %d\nsource:\n%s",
				seed, len(gotLeaves), len(wantLeaves), src)
		}
		for name, n := range gotLeaves {
			if n != 1 {
				t.Fatalf("seed %d: leaf %s appears %d times\nsource:\n%s", seed, name, n, src)
			}
		}

		// Within a block, source order is respected.
		for _, blk := range cfg.Blocks {
			for i := 1; i < len(blk.Nodes); i++ {
				if blk.Nodes[i].Pos() <= blk.Nodes[i-1].Pos() {
					t.Fatalf("seed %d: block %d nodes out of source order at %v\nsource:\n%s",
						seed, blk.Index, fset.Position(blk.Nodes[i].Pos()), src)
				}
			}
		}
	}
}
