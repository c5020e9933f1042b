package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/lint/directive"
)

const src = `package p

func a() {
	_ = 1 //reconlint:allow detrand timer is wall-clock only
	//reconlint:allow maporder,lockcheck shared suppression with reason
	_ = 2
	_ = 3
	_ = 4 //reconlint:allow all everything hushed here
	_ = 5
	_ = 6 //reconlint:allow detrand
	//reconlint:allow
	_ = 7
}
`

func parse(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestParse(t *testing.T) {
	_, files := parse(t)
	allows, probs := directive.Parse(files)
	if len(allows) != 3 {
		t.Fatalf("got %d well-formed directives, want 3: %+v", len(allows), allows)
	}
	if allows[1].Analyzers[0] != "maporder" || allows[1].Analyzers[1] != "lockcheck" {
		t.Errorf("comma list parsed as %v", allows[1].Analyzers)
	}
	if allows[0].Reason != "timer is wall-clock only" {
		t.Errorf("reason parsed as %q", allows[0].Reason)
	}
	if len(probs) != 2 {
		t.Fatalf("got %d problems, want 2 (missing reason, empty directive): %+v", len(probs), probs)
	}
}

// lineStart returns a Pos on the given 1-based line of the parsed file.
func lineStart(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}

func TestSuppresses(t *testing.T) {
	fset, files := parse(t)
	cases := []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"detrand", 4, true},   // trailing directive, same line
		{"maporder", 4, false}, // different analyzer
		{"maporder", 6, true},  // directive on the line above
		{"lockcheck", 6, true}, // second name in the comma list
		{"detrand", 6, false},  // not named by the list
		{"maporder", 7, false}, // directive reaches only one line down
		{"detrand", 8, true},   // "all" covers every analyzer
		{"ctxflow", 8, true},   // "all" covers every analyzer
		{"detrand", 10, false}, // malformed (no reason) suppresses nothing
		{"detrand", 12, false}, // malformed (empty) suppresses nothing
	}
	for _, c := range cases {
		sup := directive.Suppresses(fset, files, c.analyzer)
		if got := sup(lineStart(fset, c.line)); got != c.want {
			t.Errorf("Suppresses(%s, line %d) = %v, want %v", c.analyzer, c.line, got, c.want)
		}
	}
}

// parseSrc parses arbitrary fixture source.
func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// TestSuppressesMultiLineStatement pins the bugfix: a directive above a
// statement that wraps across lines must cover the statement's whole
// span, not just the first line.
func TestSuppressesMultiLineStatement(t *testing.T) {
	const multi = `package p

func f(a, b, c string) string { return a + b + c }

func g() string {
	//reconlint:allow detrand wrapped call is one logical statement
	return f(
		"one",
		"two",
		"three",
	)
}

func h() string {
	s := f( //reconlint:allow detrand trailing form covers the span too
		"x",
		"y",
		"z",
	)
	return s
}

func unrelated() string {
	return f(
		"not",
		"covered",
		"at all",
	)
}
`
	fset, files := parseSrc(t, multi)
	sup := directive.Suppresses(fset, files, "detrand")
	for line := 7; line <= 11; line++ { // leading form: whole return statement
		if !sup(lineStart(fset, line)) {
			t.Errorf("line %d of the wrapped statement not suppressed", line)
		}
	}
	for line := 15; line <= 19; line++ { // trailing form: whole assignment
		if !sup(lineStart(fset, line)) {
			t.Errorf("line %d of the trailing-form statement not suppressed", line)
		}
	}
	if sup(lineStart(fset, 12)) {
		t.Error("line after the wrapped statement must not be suppressed")
	}
	for line := 24; line <= 28; line++ {
		if sup(lineStart(fset, line)) {
			t.Errorf("undirected function suppressed at line %d", line)
		}
	}
}

// TestEmptyReasonRejected pins the other half of the bugfix: reasons
// with no word characters are rejected with a clear error.
func TestEmptyReasonRejected(t *testing.T) {
	const bad = `package p

func a() {
	_ = 1 //reconlint:allow detrand
	_ = 2 //reconlint:allow detrand ...
	_ = 3 //reconlint:allow detrand --- !!!
	_ = 4 //reconlint:allow detrand ok reason 42
}
`
	_, files := parseSrc(t, bad)
	allows, probs := directive.Parse(files)
	if len(allows) != 1 {
		t.Fatalf("got %d well-formed directives, want 1: %+v", len(allows), allows)
	}
	if len(probs) != 3 {
		t.Fatalf("got %d problems, want 3: %+v", len(probs), probs)
	}
	for _, p := range probs {
		if p.Message != "reconlint:allow directive has an empty reason; justify the suppression" {
			t.Errorf("unexpected problem message %q", p.Message)
		}
	}
}
