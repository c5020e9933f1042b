// Taint tracking: the second domain of the shared lattice solver (see
// lattice.go), modelling *untrusted* data the way provenance models
// *random* data. The solver supplies propagation — assignments, field
// reads (a global, flow-insensitive join per type-qualified field),
// slice/map operations, function summaries with parameter bitmasks, and
// channel sends keyed by element type; this file supplies the taint
// lattice's sources, sanitizers and sinks.
//
// Sources are the multi-tenant trust boundary: wire-decoded request
// structs (a json-tagged field of a struct declared in a package named
// "controlplane"), json.Unmarshal / Decoder.Decode targets, flag values
// (flag.Int, flag.IntVar and friends, flag.Args), os.Args, and
// environment reads. Channel sends use the same element-type
// abstraction the MHP layer pairs into concurrent send/receive sites,
// so a value sent from a spawned goroutine stays tainted at every
// may-happen-in-parallel receive.
//
// Sanitizers lower a value back to trusted:
//
//   - an upper-bound comparison guard on the CFG: `if n > k { reject }`
//     (reject = the branch returns/panics/breaks, or clamps n) makes n
//     trusted after the guard, and `if n < k { use }` makes n trusted
//     inside the branch. Lower-bound-only guards do NOT sanitize — the
//     whole point of wiretaint is unbounded growth.
//   - the min builtin with a bounded argument, and clamp-named helpers.
//   - a map-membership reject (`if !valid[op] { reject }`): membership
//     in a fixed table bounds the value to the table's key set.
//   - allow-listed validator calls (`if err := x.Validate(); err != nil
//     { return }`) sanitize x afterwards; in addition, an upper-bound or
//     membership reject applied to a *field* anywhere in the program
//     marks that field key validated program-wide — the repo's
//     validate-at-the-boundary idiom, where TaskSpec.Validate's bounds
//     are what make every later TaskSpec.WorkMI read trusted.
//   - escaping format verbs: fmt.Sprintf with a constant format string
//     launders arguments under %q/%d/%x and the other non-string verbs;
//     only %s/%v pass string taint through.
//   - the //reconlint:sanitized <reason> directive (see package
//     directive), which trusts reads and sinks on the covered lines.
//
// Sinks are where hostile magnitudes or strings become damage:
// allocation sizes (make, append spreads, strings/bytes Repeat, Grow,
// Scanner.Buffer caps), loop bounds and range-over-int, goroutine-spawn
// counts, time.Duration construction, panic arguments, file paths, and
// format strings/arguments (the logtaint kinds). Like seed sinks, taint
// sinks propagate up the call graph with chains, so the wiretaint
// analyzer reports the full source→sink path.
package dataflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/directive"
)

// TaintValue is one taint-lattice element: whether the value is
// attacker-controlled, which enclosing-function parameters flow into it
// (receiver first, as bit 0 — the interprocedural hook), and a short
// human-readable source description for diagnostics. Join keeps the
// lexicographically smallest tainted source so the fixpoint stays
// deterministic and convergent.
type TaintValue struct {
	Tainted bool
	Params  uint64
	Src     string
}

func (a TaintValue) join(b TaintValue) TaintValue {
	out := TaintValue{Tainted: a.Tainted || b.Tainted, Params: a.Params | b.Params}
	switch {
	case a.Tainted && b.Tainted:
		out.Src = a.Src
		if b.Src != "" && (out.Src == "" || b.Src < out.Src) {
			out.Src = b.Src
		}
	case a.Tainted:
		out.Src = a.Src
	case b.Tainted:
		out.Src = b.Src
	}
	return out
}

func (a TaintValue) params() uint64 { return a.Params }

func (a TaintValue) withParams(p uint64) TaintValue {
	return TaintValue{Tainted: a.Tainted, Params: p, Src: a.Src}
}

// TaintSummary is one function's taint summary, TaintSink one of its
// sinks.
type (
	TaintSummary = FuncSummary[TaintValue]
	TaintSink    = Sink[TaintValue]
)

// Taint returns fn's taint summary, or nil for functions outside the
// analyzed packages.
func (g *Graph) Taint(fn *types.Func) *TaintSummary {
	return g.taint.summaries[fn]
}

// ChanSenders returns the functions that send on channels whose element
// type renders as key, in deterministic order — the senders the MHP
// layer pairs against a tainted receive.
func (g *Graph) ChanSenders(key string) []*types.Func {
	out := append([]*types.Func(nil), g.taint.senders[key]...)
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// sanitizedLines merges every package's //reconlint:sanitized coverage
// into one filename-keyed line set.
func sanitizedLines(g *Graph) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, p := range g.pkgs {
		for file, lines := range directive.SanitizedLines(p.Fset, p.Files) {
			dst := out[file]
			if dst == nil {
				dst = make(map[int]bool)
				out[file] = dst
			}
			for l := range lines {
				dst[l] = true
			}
		}
	}
	return out
}

// guardSpan is one region of the source where a key is sanitized.
type guardSpan struct{ from, to token.Pos }

func covers(spans []guardSpan, pos token.Pos) bool {
	for _, s := range spans {
		if s.from <= pos && pos < s.to {
			return true
		}
	}
	return false
}

// boundGuard is one recognized sanitization site inside a function.
type boundGuard struct {
	expr ast.Expr // the guarded ident or selector
	span guardSpan
	// global marks reject/clamp-style guards: applied to a field, they
	// validate the field key program-wide (the validate-at-the-boundary
	// idiom); accept-style guards stay local to their branch.
	global bool
}

// terminates reports whether a block's last statement leaves the
// enclosing flow: return, panic, or an unconditional branch.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// guardKey unwraps parens and single-argument conversions to the
// guarded ident or field selector; len() is deliberately NOT unwrapped
// — bounding a string's length says nothing about its content.
func guardKey(info *types.Info, e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return guardKey(info, call.Args[0])
		}
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			return nil // a constant needs no bounding
		}
		return e
	}
	return nil
}

// splitCond flattens a condition over the given logical operator.
func splitCond(e ast.Expr, op token.Token) []ast.Expr {
	e = ast.Unparen(e)
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == op {
		return append(splitCond(b.X, op), splitCond(b.Y, op)...)
	}
	return []ast.Expr{e}
}

// rejectLeafKey matches one ||-leaf of a reject-style guard: an
// upper-bound comparison (key > k, key >= k, k < key, k <= key) or a
// map-membership test (!table[key]), returning the bounded key.
func rejectLeafKey(info *types.Info, leaf ast.Expr) ast.Expr {
	leaf = ast.Unparen(leaf)
	if u, ok := leaf.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		if idx, ok := ast.Unparen(u.X).(*ast.IndexExpr); ok {
			if _, isMap := typeOf(info, idx.X).(*types.Map); isMap {
				return guardKey(info, idx.Index)
			}
		}
		return nil
	}
	b, ok := leaf.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch b.Op {
	case token.GTR, token.GEQ:
		return guardKey(info, b.X)
	case token.LSS, token.LEQ:
		return guardKey(info, b.Y)
	}
	return nil
}

// acceptLeafKey matches one &&-leaf of an accept-style guard: key < k,
// key <= k, k > key, k >= key.
func acceptLeafKey(info *types.Info, leaf ast.Expr) ast.Expr {
	b, ok := ast.Unparen(leaf).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch b.Op {
	case token.LSS, token.LEQ:
		return guardKey(info, b.X)
	case token.GTR, token.GEQ:
		return guardKey(info, b.Y)
	}
	return nil
}

// assignsKey reports whether the block writes the guarded key itself —
// the clamp half of `if n > k { n = k }`.
func assignsKey(info *types.Info, b *ast.BlockStmt, key ast.Expr) bool {
	found := false
	ast.Inspect(b, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if sameKey(info, lhs, key) {
				found = true
			}
		}
		return true
	})
	return found
}

// sameKey compares two guard keys: identical objects for idents, equal
// field keys for selectors.
func sameKey(info *types.Info, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && objectOf(info, a) != nil && objectOf(info, a) == objectOf(info, bi)
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		ka, oka := selectionFieldKey(info, a)
		kb, okb := selectionFieldKey(info, bs)
		return oka && okb && ka == kb
	}
	return false
}

func selectionFieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	return fieldKeyFromSelection(s), true
}

// upperBoundGuards walks a function body and returns every recognized
// sanitization guard. funcEnd bounds reject/clamp-style spans.
func upperBoundGuards(info *types.Info, body *ast.BlockStmt) []boundGuard {
	var out []boundGuard
	end := body.End()
	ast.Inspect(body, func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.IfStmt:
			reject := terminates(st.Body)
			for _, leaf := range splitCond(st.Cond, token.LOR) {
				key := rejectLeafKey(info, leaf)
				if key == nil {
					continue
				}
				if reject || assignsKey(info, st.Body, key) {
					out = append(out, boundGuard{expr: key, span: guardSpan{from: st.End(), to: end}, global: true})
				}
			}
			for _, leaf := range splitCond(st.Cond, token.LAND) {
				if key := acceptLeafKey(info, leaf); key != nil {
					out = append(out, boundGuard{expr: key, span: guardSpan{from: st.Body.Pos(), to: st.Body.End()}})
				}
			}
			// Validator guard: if err := x.Validate(...); err != nil { return }
			// sanitizes x (and ident arguments) after the statement.
			if reject {
				if call := validatorCallOf(info, st); call != nil {
					for _, e := range validatorTargets(call) {
						out = append(out, boundGuard{expr: e, span: guardSpan{from: st.End(), to: end}})
					}
				}
			}
		case *ast.AssignStmt:
			// n = min(n, k) / n = clamp(...): sanitized afterwards.
			if len(st.Lhs) == 1 && len(st.Rhs) == 1 && isClampCall(info, st.Rhs[0]) {
				if key := guardKey(info, st.Lhs[0]); key != nil {
					out = append(out, boundGuard{expr: key, span: guardSpan{from: st.End(), to: end}, global: true})
				}
			}
		}
		return true
	})
	return out
}

// validatorCallOf extracts the validator call of an if-guard: either in
// the init statement (if err := x.Validate(); err != nil) or directly
// in the condition (if x.Validate() != nil).
func validatorCallOf(info *types.Info, st *ast.IfStmt) *ast.CallExpr {
	if as, ok := st.Init.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && isValidatorCall(info, call) {
			return call
		}
	}
	if b, ok := ast.Unparen(st.Cond).(*ast.BinaryExpr); ok && b.Op == token.NEQ {
		if call, ok := ast.Unparen(b.X).(*ast.CallExpr); ok && isValidatorCall(info, call) {
			return call
		}
	}
	return nil
}

func isValidatorCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Validate") || strings.HasPrefix(name, "validate")
}

// validatorTargets returns the receiver and plain ident/selector
// arguments a validator call vouches for.
func validatorTargets(call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		out = append(out, sel.X)
	}
	for _, a := range call.Args {
		switch ast.Unparen(a).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			out = append(out, a)
		}
	}
	return out
}

// isClampCall matches the min builtin (with at least one constant
// bound) and clamp-named helpers.
func isClampCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "min" {
			for _, a := range call.Args {
				if tv, ok := info.Types[a]; ok && tv.Value != nil {
					return true
				}
			}
			return false
		}
	}
	if fn := staticCallee(info, call); fn != nil {
		return strings.Contains(strings.ToLower(fn.Name()), "clamp")
	}
	return false
}

// validatedFields pre-scans every function for reject/clamp
// upper-bound guards applied to struct fields and returns the field
// keys, validated program-wide. Flow-insensitive on purpose: the repo's
// convention is to bound wire fields once at the trust boundary
// (TaskSpec.Validate, Config normalization in New), and this is the
// hook that lets those fixes clean every downstream read.
func validatedFields(g *Graph) map[string]bool {
	out := make(map[string]bool)
	for _, n := range g.SortedFuncs() {
		for _, bg := range upperBoundGuards(n.Info, n.Decl.Body) {
			if !bg.global {
				continue
			}
			if sel, ok := ast.Unparen(bg.expr).(*ast.SelectorExpr); ok {
				if key, ok := selectionFieldKey(n.Info, sel); ok {
					out[key] = true
				}
			}
		}
	}
	return out
}

// taint is the taint domain behind wiretaint and logtaint. Its
// program-wide sanitizer facts are computed once; guards are per
// function, rebuilt by enter.
type taint struct {
	g *Graph
	// sanitizedLines is //reconlint:sanitized coverage, filename -> line.
	sanitizedLines map[string]map[int]bool
	// validatedFields holds field keys bounded by a reject/clamp guard
	// anywhere in the program (the validate-at-the-boundary idiom).
	validatedFields map[string]bool
	// objGuards / fieldGuards are the current function's sanitizing
	// guard spans per local object and per field key.
	objGuards   map[types.Object][]guardSpan
	fieldGuards map[string][]guardSpan
}

func newTaint(g *Graph) *taint {
	return &taint{g: g, sanitizedLines: sanitizedLines(g), validatedFields: validatedFields(g)}
}

func (*taint) unknown() TaintValue  { return TaintValue{} }
func (*taint) constant() TaintValue { return TaintValue{} }

func (t *taint) sanitized(pos token.Pos) bool {
	if len(t.sanitizedLines) == 0 || !pos.IsValid() {
		return false
	}
	p := t.g.Fset.Position(pos)
	return t.sanitizedLines[p.Filename][p.Line]
}

func (t *taint) enter(s *funcState[TaintValue]) {
	t.objGuards = make(map[types.Object][]guardSpan)
	t.fieldGuards = make(map[string][]guardSpan)
	for _, bg := range upperBoundGuards(s.n.Info, s.n.Decl.Body) {
		switch e := ast.Unparen(bg.expr).(type) {
		case *ast.Ident:
			if obj := objectOf(s.n.Info, e); obj != nil {
				t.objGuards[obj] = append(t.objGuards[obj], bg.span)
			}
		case *ast.SelectorExpr:
			if key, ok := selectionFieldKey(s.n.Info, e); ok {
				t.fieldGuards[key] = append(t.fieldGuards[key], bg.span)
			}
		}
	}
}

// guarded reports whether a use of the given object at pos sits inside
// a sanitizing guard span.
func (t *taint) guarded(obj types.Object, pos token.Pos) bool {
	return covers(t.objGuards[obj], pos)
}

// effects taints decode targets: json.Unmarshal(data, &x),
// (*json.Decoder).Decode(&x), and the flag.XxxVar(&x, ...) family.
func (*taint) effects(s *funcState[TaintValue], call *ast.CallExpr) {
	fn := staticCallee(s.n.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	var target ast.Expr
	var src string
	switch fn.Pkg().Path() {
	case "encoding/json":
		switch {
		case fn.Name() == "Unmarshal" && len(call.Args) == 2:
			target, src = call.Args[1], "a wire decode"
		case fn.Name() == "Decode" && len(call.Args) == 1:
			target, src = call.Args[0], "a wire decode"
		}
	case "flag":
		if strings.HasSuffix(fn.Name(), "Var") && len(call.Args) > 0 {
			target, src = call.Args[0], "flag "+flagNameOf(s.n.Info, call)
		}
	}
	if target == nil {
		return
	}
	if u, ok := ast.Unparen(target).(*ast.UnaryExpr); ok && u.Op == token.AND {
		target = u.X
	}
	s.assign(target, TaintValue{Tainted: true, Src: src})
}

// flagNameOf renders the flag name argument of a flag registration for
// source descriptions ("flag -shards"), falling back to "value".
func flagNameOf(info *types.Info, call *ast.CallExpr) string {
	for _, a := range call.Args {
		if tv, ok := info.Types[a]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return "-" + constant.StringVal(tv.Value)
		}
	}
	return "value"
}

// read applies taint's sources and sanitizers to identifiers, field
// selectors and calls.
func (t *taint) read(s *funcState[TaintValue], e ast.Expr) (TaintValue, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := objectOf(s.n.Info, e); obj != nil && (t.guarded(obj, e.Pos()) || t.sanitized(e.Pos())) {
			return TaintValue{}, true
		}
	case *ast.SelectorExpr:
		// os.Args, the package-level source.
		if obj, ok := s.n.Info.Uses[e.Sel].(*types.Var); ok &&
			obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "Args" {
			return t.source(e.Pos(), "os.Args"), true
		}
		sel, ok := s.n.Info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			break
		}
		key := fieldKeyFromSelection(sel)
		if covers(t.fieldGuards[key], e.Pos()) || t.validatedFields[key] || t.sanitized(e.Pos()) {
			return TaintValue{}, true
		}
		// A validator guard on the root object vouches for its fields.
		if root, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if obj := objectOf(s.n.Info, root); obj != nil && t.guarded(obj, e.Pos()) {
				return TaintValue{}, true
			}
		}
		if src, ok := wireFieldSource(sel); ok {
			return TaintValue{Tainted: true, Src: src}, true
		}
		return s.globalGet(s.fields, key), true
	case *ast.CallExpr:
		return t.callValue(s, e)
	}
	return TaintValue{}, false
}

// source is a tainted value from src, unless a directive covers pos.
func (t *taint) source(pos token.Pos, src string) TaintValue {
	if t.sanitized(pos) {
		return TaintValue{}
	}
	return TaintValue{Tainted: true, Src: src}
}

// wireFieldSource reports whether a field selection reads a wire-struct
// source: a json-tagged field of a struct declared in a package named
// "controlplane" — the trust frontier.
func wireFieldSource(sel *types.Selection) (string, bool) {
	obj, ok := sel.Obj().(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Pkg().Name() != "controlplane" {
		return "", false
	}
	owner := deref(sel.Recv())
	st, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) != obj && st.Field(i).Name() != obj.Name() {
			continue
		}
		tag := jsonTagName(st.Tag(i))
		if tag == "" || tag == "-" {
			return "", false
		}
		return "wire field " + shortTypeName(owner) + "." + obj.Name(), true
	}
	return "", false
}

// jsonTagName extracts the json name from a struct tag without
// importing reflect: `json:"work_mi,omitempty"` -> "work_mi".
func jsonTagName(tag string) string {
	for tag != "" {
		i := strings.IndexByte(tag, ':')
		if i < 0 {
			return ""
		}
		key := strings.TrimSpace(tag[:i])
		rest := tag[i+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return ""
		}
		j := strings.IndexByte(rest[1:], '"')
		if j < 0 {
			return ""
		}
		val := rest[1 : 1+j]
		tag = strings.TrimSpace(rest[j+2:])
		if key == "json" {
			return strings.SplitN(val, ",", 2)[0]
		}
	}
	return ""
}

func shortTypeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// flagValueFns are the flag-package registration functions whose result
// is attacker-adjacent operator input.
var flagValueFns = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
	"Arg": true, "Args": true, "Func": false,
}

// envFns are the os-package environment readers.
var envFns = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// builtinValue is the taint of a builtin call's result.
func builtinValue(s *funcState[TaintValue], name string, call *ast.CallExpr) TaintValue {
	switch name {
	case "min":
		// One bounded argument caps the result: min(n, k) is at most k.
		joined := TaintValue{}
		for _, a := range call.Args {
			v := s.valueOf(a)
			if v == (TaintValue{}) {
				return TaintValue{}
			}
			joined = joined.join(v)
		}
		return joined
	case "max", "append":
		return s.joinAll(call.Args)
	}
	// len/cap/make/new/copy and the rest: bounded or fresh.
	return TaintValue{}
}

// callValue models the calls taint knows itself: builtins, flag and env
// sources, fmt formatting, and the min/clamp sanitizers.
func (t *taint) callValue(s *funcState[TaintValue], call *ast.CallExpr) (TaintValue, bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.n.Info.Uses[id].(*types.Builtin); ok {
			return builtinValue(s, b.Name(), call), true
		}
	}
	fn := staticCallee(s.n.Info, call)
	if fn == nil {
		return TaintValue{}, false
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "flag":
			if flagValueFns[fn.Name()] {
				return t.source(call.Pos(), "flag "+flagNameOf(s.n.Info, call)), true
			}
			return TaintValue{}, true
		case "os":
			if envFns[fn.Name()] {
				return t.source(call.Pos(), "env read"), true
			}
			return TaintValue{}, true
		case "fmt":
			if idx, ok := formatArgIndex(fn); ok {
				return formatResultValue(s, call, idx), true
			}
			if fn.Name() == "Sprint" || fn.Name() == "Sprintln" {
				return s.joinAll(call.Args), true
			}
			return TaintValue{}, true
		}
	}
	if strings.Contains(strings.ToLower(fn.Name()), "clamp") {
		return TaintValue{}, true
	}
	return TaintValue{}, false
}

// formatArgIndex returns the format-parameter index of a printf-style
// function: a string parameter named "format" directly before a
// variadic tail. This matches fmt.Sprintf/Errorf/Fprintf, log.Printf,
// and repo helpers like errWire without an allow list.
func formatArgIndex(fn *types.Func) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() || sig.Params().Len() < 2 {
		return 0, false
	}
	i := sig.Params().Len() - 2
	p := sig.Params().At(i)
	if p.Name() != "format" {
		return 0, false
	}
	if b, ok := p.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return 0, false
	}
	return i, true
}

// formatResultValue computes the taint of a printf-style call's result:
// a constant format launders every argument under an escaping verb
// (%q/%d/%x/...); only %s and %v pass taint through. A non-constant
// format joins everything.
func formatResultValue(s *funcState[TaintValue], call *ast.CallExpr, fmtIdx int) TaintValue {
	if fmtIdx >= len(call.Args) {
		return TaintValue{}
	}
	fmtArg := call.Args[fmtIdx]
	tv, ok := s.n.Info.Types[fmtArg]
	if !ok || tv.Value == nil {
		return s.joinAll(call.Args[fmtIdx:])
	}
	verbs := formatVerbs(constStringValue(tv))
	v := TaintValue{}
	for i, a := range call.Args[fmtIdx+1:] {
		if i < len(verbs) && !escapingVerb(verbs[i]) {
			v = v.join(s.valueOf(a))
		}
	}
	return v
}

func constStringValue(tv types.TypeAndValue) string {
	if tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	str := tv.Value.ExactString()
	if u, err := strconv.Unquote(str); err == nil {
		return u
	}
	return str
}

// formatVerbs extracts the verb letter consumed by each successive
// argument of a printf format string. '*' width/precision arguments
// consume an argument and are reported as '*'.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // literal %%
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == '#' || c == ' ' || c == '[' || c == ']' {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs
}

// escapingVerb reports whether a verb renders its argument in a form
// that cannot smuggle raw attacker bytes: quoted, numeric, or typed.
// Only %s and %v (and %w, which wraps) pass the raw string through.
func escapingVerb(v byte) bool {
	switch v {
	case 's', 'v', 'w':
		return false
	}
	return true
}

// timerFns are the time-package entry points whose Duration argument a
// tenant must not control (an unbounded sleep is a stall, an unbounded
// ticker a busy loop).
var timerFns = map[string]bool{
	"Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// pathFns maps os-package filesystem functions to their path-argument
// indices.
var pathFns = map[string][]int{
	"Open": {0}, "Create": {0}, "OpenFile": {0}, "ReadFile": {0},
	"WriteFile": {0}, "Remove": {0}, "RemoveAll": {0},
	"Mkdir": {0}, "MkdirAll": {0}, "Rename": {0, 1}, "Chdir": {0},
}

// sinks records the taint sinks at x: calls, for-loop bounds, and
// range-over-int bounds, plus goroutines spawned under a tainted bound.
func (t *taint) sinks(s *funcState[TaintValue], x ast.Node, add func(TaintSink)) bool {
	switch n := x.(type) {
	case *ast.CallExpr:
		return callSinks(s, n, add)
	case *ast.ForStmt:
		loopSinks(s, n.Cond, n.Body, add)
	case *ast.RangeStmt:
		if isIntegerType(typeOf(s.n.Info, n.X)) {
			add(TaintSink{Pos: n.X.Pos(), Kind: TaintLoopBound, Chain: []string{"range"}, Val: s.valueOf(n.X)})
		}
		spawnSinks(n.Body, s.valueOf(n.X), add)
	}
	return false
}

// loopSinks records the tainted bound of a for-loop condition and any
// goroutine spawned under it.
func loopSinks(s *funcState[TaintValue], cond ast.Expr, body *ast.BlockStmt, add func(TaintSink)) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch b.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return
	}
	bound := s.valueOf(b.X).join(s.valueOf(b.Y))
	add(TaintSink{Pos: cond.Pos(), Kind: TaintLoopBound, Chain: []string{"for loop"}, Val: bound})
	spawnSinks(body, bound, add)
}

// spawnSinks records goroutine launches inside a tainted-bound loop
// body: the spawn count is the loop trip count.
func spawnSinks(body *ast.BlockStmt, bound TaintValue, add func(TaintSink)) {
	if body == nil || (!bound.Tainted && bound.Params == 0) {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if gs, ok := x.(*ast.GoStmt); ok {
			add(TaintSink{Pos: gs.Pos(), Kind: TaintSpawnCount, Chain: []string{"go statement"}, Val: bound})
		}
		return true
	})
}

// callSinks records the sinks of one call; true means the call is fully
// judged here and no callee parameter sinks propagate.
func callSinks(s *funcState[TaintValue], call *ast.CallExpr, add func(TaintSink)) bool {
	// Builtins: make sizes, append spreads, panic arguments.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.n.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				for _, a := range call.Args[1:] {
					add(TaintSink{Pos: a.Pos(), Kind: TaintAllocSize, Chain: []string{"make"}, Val: s.valueOf(a)})
				}
			case "append":
				if call.Ellipsis.IsValid() && len(call.Args) == 2 {
					add(TaintSink{Pos: call.Args[1].Pos(), Kind: TaintAllocSize, Chain: []string{"append"}, Val: s.valueOf(call.Args[1])})
				}
			case "panic":
				if len(call.Args) == 1 {
					add(TaintSink{Pos: call.Args[0].Pos(), Kind: TaintPanic, Chain: []string{"panic"}, Val: s.valueOf(call.Args[0])})
				}
			}
			return true
		}
	}
	// time.Duration conversions.
	if tv, ok := s.n.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.TypeString(tv.Type, nil) == "time.Duration" {
			add(TaintSink{Pos: call.Args[0].Pos(), Kind: TaintDuration, Chain: []string{"time.Duration"}, Val: s.valueOf(call.Args[0])})
		}
		return true
	}
	fn := staticCallee(s.n.Info, call)
	if fn == nil {
		return true
	}
	if pkg := fn.Pkg(); pkg != nil {
		hasRecv := fn.Type().(*types.Signature).Recv() != nil
		switch pkg.Path() {
		case "time":
			if !hasRecv && timerFns[fn.Name()] && len(call.Args) > 0 {
				add(TaintSink{Pos: call.Args[0].Pos(), Kind: TaintDuration, Chain: []string{"time." + fn.Name()}, Val: s.valueOf(call.Args[0])})
			}
			return true
		case "os":
			for _, i := range pathFns[fn.Name()] {
				if !hasRecv && i < len(call.Args) {
					add(TaintSink{Pos: call.Args[i].Pos(), Kind: TaintFilePath, Chain: []string{"os." + fn.Name()}, Val: s.valueOf(call.Args[i])})
				}
			}
			if pathFns[fn.Name()] != nil {
				return true
			}
		case "strings", "bytes":
			if fn.Name() == "Repeat" && !hasRecv && len(call.Args) == 2 {
				add(TaintSink{Pos: call.Args[1].Pos(), Kind: TaintAllocSize, Chain: []string{pkg.Name() + ".Repeat"}, Val: s.valueOf(call.Args[1])})
				return true
			}
			if fn.Name() == "Grow" && hasRecv && len(call.Args) == 1 {
				add(TaintSink{Pos: call.Args[0].Pos(), Kind: TaintAllocSize, Chain: []string{displayName(fn)}, Val: s.valueOf(call.Args[0])})
				return true
			}
		case "bufio":
			if fn.Name() == "Buffer" && hasRecv && len(call.Args) == 2 {
				add(TaintSink{Pos: call.Args[1].Pos(), Kind: TaintAllocSize, Chain: []string{"Scanner.Buffer"}, Val: s.valueOf(call.Args[1])})
				return true
			}
		}
	}
	// Printf-style callees: verbs are judged at this call site, where
	// the format string is visible; the callee's own internal format
	// sink is NOT propagated (it could not see the verbs).
	if idx, ok := formatArgIndex(fn); ok {
		formatSinks(s, call, fn, idx, add)
		return true
	}
	return false
}

// formatSinks records logtaint sinks at a printf-style call site: a
// tainted format string, or tainted arguments under non-escaping verbs
// of a constant format.
func formatSinks(s *funcState[TaintValue], call *ast.CallExpr, fn *types.Func, fmtIdx int, add func(TaintSink)) {
	if fmtIdx >= len(call.Args) {
		return
	}
	fmtArg := call.Args[fmtIdx]
	name := displayName(fn)
	tv, ok := s.n.Info.Types[fmtArg]
	if !ok || tv.Value == nil {
		if v := s.valueOf(fmtArg); v.Tainted || v.Params != 0 {
			add(TaintSink{Pos: fmtArg.Pos(), Kind: TaintFormatString, Chain: []string{name}, Val: v})
		}
		return
	}
	verbs := formatVerbs(constStringValue(tv))
	for i, a := range call.Args[fmtIdx+1:] {
		if i >= len(verbs) || escapingVerb(verbs[i]) {
			continue
		}
		v := s.valueOf(a)
		if v.Tainted || v.Params != 0 {
			add(TaintSink{Pos: a.Pos(), Kind: TaintFormatArg, Chain: []string{name + " %" + string(verbs[i])}, Val: v})
		}
	}
}
