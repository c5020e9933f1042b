package dataflow

import (
	"go/ast"
	"go/token"
)

// CFG is a per-function control-flow graph over go/ast statements. It
// is the substrate under the flow-sensitive analyses, reaching locksets
// and definite channel initialization, which both run on ForwardMust
// (TestForwardMust pins the driver, the TestCFG* tests this graph).
// Blocks hold statements in source order; edges model branches, loops,
// switches, selects, goto, and labeled break/continue. Short-circuit
// operators are not split into separate blocks — statement granularity
// is what the lockset and init analyses need — and panics are not
// modeled as edges. A defer statement is a node where it appears, since
// its arguments evaluate there; the lock analyses give it no effect
// mid-body, so a defer mu.Unlock() never kills the lockset.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is one straight-line run of statements. Nodes are ast.Stmt or
// the ast.Expr of a condition, in source order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// addSucc wires b -> s once.
func (b *Block) addSucc(s *Block) {
	for _, old := range b.Succs {
		if old == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// cfgBuilder holds the in-progress graph.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block new statements append to; nil after a terminating
	// statement (return, goto, break) until the next label or join.
	cur *Block
	// breakTo / continueTo are the innermost loop/switch targets; labeled
	// variants index by label name.
	breakTo         *Block
	continueTo      *Block
	labeledBreak    map[string]*Block
	labeledContinue map[string]*Block
	// labels maps a label name to its block for goto; gotos seen before
	// their label are fixed up at the end.
	labels     map[string]*Block
	gotoFixups map[string][]*Block
}

// BuildCFG constructs the CFG of one function body. The body may be a
// declared function's or a function literal's.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:             &CFG{},
		labeledBreak:    make(map[string]*Block),
		labeledContinue: make(map[string]*Block),
		labels:          make(map[string]*Block),
		gotoFixups:      make(map[string][]*Block),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.cur.addSucc(b.cfg.Exit)
	}
	// Unresolved gotos (syntactically impossible in type-checked code,
	// but partial packages happen): fall through to exit.
	for _, blocks := range b.gotoFixups {
		for _, blk := range blocks {
			blk.addSucc(b.cfg.Exit)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startBlock makes blk current, joining from the previous current block
// when it is still open.
func (b *cfgBuilder) startBlock(blk *Block) {
	if b.cur != nil {
		b.cur.addSucc(blk)
	}
	b.cur = blk
}

// add appends a node to the current block, opening one if control just
// terminated (unreachable code still gets a block so every statement
// appears in the graph exactly once).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		blk := b.newBlock()
		b.labels[s.Label.Name] = blk
		for _, g := range b.gotoFixups[s.Label.Name] {
			g.addSucc(blk)
		}
		delete(b.gotoFixups, s.Label.Name)
		b.startBlock(blk)
		// Pre-register labeled break/continue targets for the labeled
		// loop/switch, then build it.
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			done := b.newBlock()
			b.labeledBreak[s.Label.Name] = done
			if _, isLoop := inner.(*ast.ForStmt); isLoop {
				b.labeledLoop(s.Label.Name, inner, done)
			} else if _, isRange := inner.(*ast.RangeStmt); isRange {
				b.labeledLoop(s.Label.Name, inner, done)
			} else {
				b.stmtInto(inner, done)
			}
			delete(b.labeledBreak, s.Label.Name)
			delete(b.labeledContinue, s.Label.Name)
			b.cur = done
		default:
			b.stmt(s.Stmt)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		join := b.newBlock()
		thenBlk := b.newBlock()
		condBlk.addSucc(thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(join)
		}
		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.addSucc(elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			if b.cur != nil {
				b.cur.addSucc(join)
			}
		} else {
			condBlk.addSucc(join)
		}
		b.cur = join
	case *ast.ForStmt:
		done := b.newBlock()
		b.labeledLoop("", s, done)
		b.cur = done
	case *ast.RangeStmt:
		done := b.newBlock()
		b.labeledLoop("", s, done)
		b.cur = done
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		done := b.newBlock()
		b.stmtInto(s, done)
		b.cur = done
	case *ast.ReturnStmt:
		b.add(s)
		b.cur.addSucc(b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			target := b.breakTo
			if s.Label != nil {
				target = b.labeledBreak[s.Label.Name]
			}
			if target != nil {
				b.cur.addSucc(target)
			} else {
				b.cur.addSucc(b.cfg.Exit)
			}
			b.cur = nil
		case token.CONTINUE:
			target := b.continueTo
			if s.Label != nil {
				target = b.labeledContinue[s.Label.Name]
			}
			if target != nil {
				b.cur.addSucc(target)
			} else {
				b.cur.addSucc(b.cfg.Exit)
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				if target, ok := b.labels[s.Label.Name]; ok {
					b.cur.addSucc(target)
				} else {
					b.gotoFixups[s.Label.Name] = append(b.gotoFixups[s.Label.Name], b.cur)
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by the switch builder: the case body's open block
			// falls into the next clause. Nothing to wire here.
		}
	default:
		// Straight-line statements: assignments, declarations, calls,
		// sends, go, defer, inc/dec, empty.
		b.add(s)
	}
}

// labeledLoop builds a for or range loop whose break target is done and
// whose continue target is the loop head (post-statement block for a
// 3-clause for). label is "" for unlabeled loops.
func (b *cfgBuilder) labeledLoop(label string, s ast.Stmt, done *Block) {
	savedBreak, savedCont := b.breakTo, b.continueTo
	defer func() { b.breakTo, b.continueTo = savedBreak, savedCont }()

	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.cur.addSucc(done)
		}
		condBlk := b.cur
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			post.addSucc(head)
		}
		b.breakTo, b.continueTo = done, post
		if label != "" {
			b.labeledContinue[label] = post
		}
		body := b.newBlock()
		condBlk.addSucc(body)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(post)
		}
		if s.Cond == nil {
			// for {}: no fall-out edge; done is only reachable via break.
			_ = condBlk
		}
	case *ast.RangeStmt:
		head := b.newBlock()
		b.startBlock(head)
		b.add(s) // the range clause itself (key/value binding + X eval)
		head = b.cur
		head.addSucc(done)
		b.breakTo, b.continueTo = done, head
		if label != "" {
			b.labeledContinue[label] = head
		}
		body := b.newBlock()
		head.addSucc(body)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(head)
		}
	}
}

// stmtInto builds a switch/type-switch/select whose break target is
// done.
func (b *cfgBuilder) stmtInto(s ast.Stmt, done *Block) {
	savedBreak := b.breakTo
	b.breakTo = done
	defer func() { b.breakTo = savedBreak }()

	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, done)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, done)
	case *ast.SelectStmt:
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		hasDefault := false
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			head.addSucc(blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			} else {
				hasDefault = true
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.cur.addSucc(done)
			}
		}
		if len(s.Body.List) == 0 || !hasDefault {
			// select{} blocks forever; selects without default still reach
			// done only through a clause. Keep done reachable from head only
			// when there are zero clauses (degenerate source).
			if len(s.Body.List) == 0 {
				head.addSucc(done)
			}
		}
		b.cur = nil
	}
}

// switchClauses wires expression/type switch cases: the dispatch block
// branches to every clause (and to done when no default exists);
// fallthrough chains a clause's open end into the next clause's block.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, done *Block) {
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock()
		b.cur = dispatch
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		dispatch.addSucc(blocks[i])
	}
	hasDefault := false
	for i, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.cur.addSucc(blocks[i+1])
			} else {
				b.cur.addSucc(done)
			}
		}
	}
	if !hasDefault {
		dispatch.addSucc(done)
	}
	b.cur = nil
}
