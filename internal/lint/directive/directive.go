// Package directive parses //reconlint:allow suppression comments and
// //reconlint:sanitized trust assertions, and filters analyzer
// diagnostics through them.
//
// Grammar, one directive per comment line:
//
//	//reconlint:allow <analyzer>[,<analyzer>...] <reason>
//	//reconlint:sanitized <reason>
//
// The analyzer list may be "all". The reason is mandatory and must
// contain at least one word character: a suppression without a recorded
// justification is itself reported as a finding, so the determinism
// contract stays auditable. A directive suppresses matching diagnostics
// on its own line, on the line directly below it, and — when the line
// below starts a statement or declaration that spans several lines —
// on every line of that statement, so an allow above a wrapped call
// covers the whole call.
//
// //reconlint:sanitized is the taint layer's escape hatch: values read
// and sinks evaluated on the covered lines are treated as trusted by
// the wiretaint and logtaint analyzers. Unlike allow (which hides
// one analyzer's diagnostic), sanitized changes the dataflow itself —
// downstream flows of the covered value stay clean too — so the
// mandatory reason must say why the input is trusted (for example an
// operator-supplied flag rather than tenant wire input).
package directive

import (
	"go/ast"
	"go/token"
	"strings"
	"unicode"
)

const (
	prefix          = "//reconlint:allow"
	sanitizedPrefix = "//reconlint:sanitized"
)

// Allow is one parsed directive.
type Allow struct {
	Pos       token.Pos
	Analyzers []string // lower-case names, or ["all"]
	Reason    string
}

// Problem is a malformed directive (missing analyzer list or reason).
type Problem struct {
	Pos     token.Pos
	Message string
}

// ownDirective reports whether comment text is our directive with the
// given prefix (and not e.g. //reconlint:allowfoo), returning the rest.
func ownDirective(text, prefix string) (string, bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return rest, true
}

// hasWord reports whether s contains at least one letter or digit — the
// minimum for a reason to say anything.
func hasWord(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r)
	}) >= 0
}

// Parse extracts every //reconlint:allow directive from the files,
// returning well-formed directives and the problems found in malformed
// ones. A malformed directive never suppresses anything.
func Parse(files []*ast.File) ([]Allow, []Problem) {
	var allows []Allow
	var probs []Problem
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := ownDirective(c.Text, prefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					probs = append(probs, Problem{Pos: c.Pos(),
						Message: "reconlint:allow directive names no analyzer"})
					continue
				}
				reason := strings.Join(fields[1:], " ")
				if len(fields) < 2 || !hasWord(reason) {
					probs = append(probs, Problem{Pos: c.Pos(),
						Message: "reconlint:allow directive has an empty reason; justify the suppression"})
					continue
				}
				names := strings.Split(strings.ToLower(fields[0]), ",")
				allows = append(allows, Allow{
					Pos:       c.Pos(),
					Analyzers: names,
					Reason:    reason,
				})
			}
		}
	}
	return allows, probs
}

// Sanitized is one parsed //reconlint:sanitized directive.
type Sanitized struct {
	Pos    token.Pos
	Reason string
}

// ParseSanitized extracts every //reconlint:sanitized directive,
// returning well-formed directives and problems for reasonless ones. A
// malformed directive sanitizes nothing: asserting trust without saying
// why is exactly the blind spot the taint layer exists to close.
func ParseSanitized(files []*ast.File) ([]Sanitized, []Problem) {
	var out []Sanitized
	var probs []Problem
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := ownDirective(c.Text, sanitizedPrefix)
				if !ok {
					continue
				}
				reason := strings.TrimSpace(rest)
				if !hasWord(reason) {
					probs = append(probs, Problem{Pos: c.Pos(),
						Message: "reconlint:sanitized directive has an empty reason; say why the input is trusted"})
					continue
				}
				out = append(out, Sanitized{Pos: c.Pos(), Reason: reason})
			}
		}
	}
	return out, probs
}

// SanitizedLines returns the covered lines of every well-formed
// //reconlint:sanitized directive, keyed by filename, with the same
// span rules as allow suppression: the directive's own line, the line
// below, and the whole span of a statement starting on either.
func SanitizedLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	sans, _ := ParseSanitized(files)
	covered := make(map[string]map[int]bool)
	var spans map[string]map[int]int // built lazily, like Suppresses
	for _, s := range sans {
		if spans == nil {
			spans = spanStarts(fset, files)
		}
		p := fset.Position(s.Pos)
		lines := covered[p.Filename]
		if lines == nil {
			lines = make(map[int]bool)
			covered[p.Filename] = lines
		}
		lines[p.Line] = true
		lines[p.Line+1] = true
		for _, start := range []int{p.Line, p.Line + 1} {
			if end, ok := spans[p.Filename][start]; ok {
				for l := start; l <= end; l++ {
					lines[l] = true
				}
			}
		}
	}
	return covered
}

// spanStarts maps "start line" -> largest "end line" over every
// statement and declaration in the files, per filename. It lets an
// allow directive on the line above a multi-line statement cover the
// statement's whole span.
func spanStarts(fset *token.FileSet, files []*ast.File) map[string]map[int]int {
	spans := make(map[string]map[int]int)
	note := func(n ast.Node) {
		start := fset.Position(n.Pos())
		end := fset.Position(n.End())
		byLine := spans[start.Filename]
		if byLine == nil {
			byLine = make(map[int]int)
			spans[start.Filename] = byLine
		}
		if end.Line > byLine[start.Line] {
			byLine[start.Line] = end.Line
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, ast.Decl, *ast.Field:
				note(n)
			}
			return true
		})
	}
	return spans
}

// Suppresses returns a predicate reporting whether a diagnostic from
// the named analyzer at a position is covered by an allow directive.
// A diagnostic at line L is suppressed when a directive covering the
// analyzer (or "all") sits at line L or line L-1 of the same file, or
// when the directive sits directly above a statement whose span
// includes L. Diagnostic and directive positions must come from the
// same fset.
func Suppresses(fset *token.FileSet, files []*ast.File, analyzer string) func(pos token.Pos) bool {
	allows, _ := Parse(files)
	name := strings.ToLower(analyzer)
	var spans map[string]map[int]int // built lazily: most packages have no allows
	suppressed := make(map[string]map[int]bool)
	for _, a := range allows {
		match := false
		for _, n := range a.Analyzers {
			if n == "all" || n == name {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		if spans == nil {
			spans = spanStarts(fset, files)
		}
		p := fset.Position(a.Pos)
		lines := suppressed[p.Filename]
		if lines == nil {
			lines = make(map[int]bool)
			suppressed[p.Filename] = lines
		}
		lines[p.Line] = true
		lines[p.Line+1] = true
		// A statement starting on the directive's line (trailing form) or
		// the line below (leading form) is covered across its whole span.
		for _, start := range []int{p.Line, p.Line + 1} {
			if end, ok := spans[p.Filename][start]; ok {
				for l := start; l <= end; l++ {
					lines[l] = true
				}
			}
		}
	}
	return func(pos token.Pos) bool {
		p := fset.Position(pos)
		return suppressed[p.Filename][p.Line]
	}
}
