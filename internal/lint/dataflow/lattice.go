package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// value is what the solver needs of a lattice element: a join, and the
// set of enclosing-function parameters (receiver first, as bit 0) that
// flow into it. The parameter mask is what makes summaries
// interprocedural: a caller substitutes its own argument value for each
// set bit.
type value[V any] interface {
	comparable
	join(V) V
	params() uint64
	withParams(uint64) V
}

// domain is everything one lattice adds to the shared solver: what its
// "no information" and constants read as, its sources and sanitizers,
// and the sinks it reports. Provenance and taint are the two domains.
type domain[V value[V]] interface {
	// unknown is what no information reads as: an absent local or
	// global, an unmodelled expression, an unresolved call.
	unknown() V
	// constant is what a compile-time constant reads as.
	constant() V
	// enter prepares per-function state before a function's walks.
	enter(s *funcState[V])
	// read intercepts an identifier, selector or call the domain models
	// itself (sources, sanitizers, library calls); ok=false falls back
	// to the structural rules.
	read(s *funcState[V], e ast.Expr) (v V, ok bool)
	// effects applies a call's writes through its arguments.
	effects(s *funcState[V], call *ast.CallExpr)
	// sinks reports the sinks the domain recognizes at x. For a call,
	// true means the call is fully judged here and its callee's
	// parameter sinks do not propagate.
	sinks(s *funcState[V], x ast.Node, add func(Sink[V])) bool
	// sanitized reports whether a //reconlint:sanitized directive covers
	// pos for this domain.
	sanitized(pos token.Pos) bool
}

// SinkKind classifies what a value reaches.
type SinkKind uint8

const (
	// TaintAllocSize is a make/append/Repeat/Grow/Buffer size.
	TaintAllocSize SinkKind = iota
	// TaintLoopBound is a for-loop comparison bound or range-over-int.
	TaintLoopBound
	// TaintSpawnCount is a goroutine launch inside a tainted-bound loop.
	TaintSpawnCount
	// TaintDuration is a time.Duration conversion or timer/sleep argument.
	TaintDuration
	// TaintPanic is a panic argument.
	TaintPanic
	// TaintFilePath is a filesystem-operation path argument.
	TaintFilePath
	// TaintFormatString is a non-constant tainted format string.
	TaintFormatString
	// TaintFormatArg is a tainted argument under a non-escaping %s/%v verb.
	TaintFormatArg
	// SeedArg is an RNG-construction seed argument.
	SeedArg
)

func (k SinkKind) String() string {
	switch k {
	case TaintAllocSize:
		return "an allocation size"
	case TaintLoopBound:
		return "a loop bound"
	case TaintSpawnCount:
		return "a goroutine-spawn count"
	case TaintDuration:
		return "a time.Duration"
	case TaintPanic:
		return "a panic argument"
	case TaintFilePath:
		return "a file path"
	case TaintFormatString:
		return "a format string"
	case SeedArg:
		return "an RNG seed"
	}
	return "an unescaped format argument"
}

// Sink is one sink argument reached from a function: directly (Chain
// has one hop, the sink operation) or through summarized callees (Chain
// lists the hops outermost-first).
type Sink[V comparable] struct {
	// Pos is the argument expression at this function's own call site —
	// diagnostics point at the code that supplied the value.
	Pos   token.Pos
	Kind  SinkKind
	Chain []string
	Val   V
}

// FuncSummary is one function's summary in one domain after the
// fixpoint.
type FuncSummary[V comparable] struct {
	// Results holds the value of each declared result, with Params
	// referring to this function's own parameters.
	Results []V
	// Sinks are the sinks evaluated inside this function, transitively
	// through summarized callees.
	Sinks []Sink[V]
	// ParamSinks maps a parameter index to a representative sink it
	// reaches — the hook callers use to propagate sinks upward.
	ParamSinks map[int]Sink[V]
	// FieldWrites maps a struct-field key to the parameter bits written
	// into it (directly, or inherited from a callee). Callers join their
	// argument values into the global field state through it, so a
	// constructor like tenantEngine{id: tenant} taints the id field when
	// some call site passes wire input. nil when empty.
	FieldWrites map[string]uint64
}

func sinkEqual[V comparable](x, y Sink[V]) bool {
	return x.Pos == y.Pos && x.Kind == y.Kind && x.Val == y.Val &&
		slices.Equal(x.Chain, y.Chain)
}

// equal compares summaries.
func (a *FuncSummary[V]) equal(b *FuncSummary[V]) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Results, b.Results) &&
		slices.EqualFunc(a.Sinks, b.Sinks, sinkEqual[V]) &&
		maps.EqualFunc(a.ParamSinks, b.ParamSinks, sinkEqual[V]) &&
		maps.Equal(a.FieldWrites, b.FieldWrites)
}

// maxChain bounds sink chains so mutual recursion cannot grow them
// forever; deeper paths are truncated, not dropped.
const maxChain = 6

// solver is one domain's interprocedural state: per-function summaries
// and the flow-insensitive global field and channel state.
type solver[V value[V]] struct {
	g         *Graph
	d         domain[V]
	summaries map[*types.Func]*FuncSummary[V]
	// fields joins every value assigned to a named struct field (keyed
	// by type-qualified field name): reading the field anywhere yields
	// the join of all writes. Flow- and instance-insensitive by design.
	fields map[string]V
	// chans does the same for channel element types: a send joins the
	// sent value, a receive reads the join.
	chans map[string]V
	// senders records, per channel-element key, the functions that send
	// informative values on it — the MHP layer pairs these against
	// receives to show the concurrent half of a channel-crossing chain.
	senders map[string][]*types.Func
}

// solve runs the interprocedural fixpoint for one domain: each round
// recomputes every function's summary against the previous round's
// summaries and the global field/channel state, until nothing changes.
func solve[V value[V]](g *Graph, d domain[V]) *solver[V] {
	sv := &solver[V]{
		g: g, d: d,
		summaries: make(map[*types.Func]*FuncSummary[V]),
		fields:    make(map[string]V),
		chans:     make(map[string]V),
		senders:   make(map[string][]*types.Func),
	}
	funcs := g.SortedFuncs()
	const maxRounds = 10
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, n := range funcs {
			st := &funcState[V]{solver: sv, n: n, env: make(map[types.Object]V), params: paramIndex(n.Fn)}
			sum := st.summarize()
			if st.globalChanged || !sum.equal(sv.summaries[n.Fn]) {
				changed = true
			}
			sv.summaries[n.Fn] = sum
		}
		if !changed {
			break
		}
	}
	return sv
}

// paramIndex maps each parameter object (receiver first) to its bit.
func paramIndex(fn *types.Func) map[types.Object]int {
	idx := make(map[types.Object]int)
	sig := fn.Type().(*types.Signature)
	i := 0
	if recv := sig.Recv(); recv != nil {
		idx[recv] = i
		i++
	}
	for j := 0; j < sig.Params().Len() && i < 64; j++ {
		idx[sig.Params().At(j)] = i
		i++
	}
	return idx
}

// funcState is the per-function analysis state for one summarize call.
type funcState[V value[V]] struct {
	*solver[V]
	n             *FuncNode
	params        map[types.Object]int
	env           map[types.Object]V
	fieldWrites   map[string]uint64
	localChanged  bool
	globalChanged bool
}

func (s *funcState[V]) summarize() *FuncSummary[V] {
	s.d.enter(s)
	// Local fixpoint: later statements can feed earlier ones through
	// loops, so re-walk until the environment stabilizes.
	for i := 0; i < 8; i++ {
		s.localChanged = false
		ast.Inspect(s.n.Decl.Body, func(x ast.Node) bool {
			s.processNode(x)
			return true
		})
		if !s.localChanged {
			break
		}
	}
	sum := &FuncSummary[V]{
		Results:     s.collectReturns(),
		Sinks:       s.collectSinks(),
		ParamSinks:  make(map[int]Sink[V]),
		FieldWrites: s.fieldWrites,
	}
	for _, sink := range sum.Sinks {
		for i := 0; i < 64; i++ {
			if sink.Val.params()&(1<<i) == 0 {
				continue
			}
			if _, ok := sum.ParamSinks[i]; !ok {
				sum.ParamSinks[i] = sink
			}
		}
	}
	return sum
}

// envJoin joins v into a local's value, tracking change. The first
// write is recorded as-is, so a lone constant write reads back as the
// constant even where unknown sits above it in the order.
func (s *funcState[V]) envJoin(obj types.Object, v V) {
	old, ok := s.env[obj]
	if !ok {
		s.env[obj] = v
		if v != s.d.unknown() {
			s.localChanged = true
		}
		return
	}
	if merged := old.join(v); merged != old {
		s.env[obj] = merged
		s.localChanged = true
	}
}

// joinGlobal joins v, minus its caller-relative parameter bits, into a
// global field or channel map. The first write is taken verbatim.
func (s *funcState[V]) joinGlobal(m map[string]V, key string, v V) {
	v = v.withParams(0)
	old, ok := m[key]
	if !ok {
		m[key] = v
		s.globalChanged = true
		return
	}
	if merged := old.join(v); merged != old {
		m[key] = merged
		s.globalChanged = true
	}
}

// globalGet reads a global field or channel value; absent means no
// information.
func (s *funcState[V]) globalGet(m map[string]V, key string) V {
	if v, ok := m[key]; ok {
		return v
	}
	return s.d.unknown()
}

// noteFieldWrite records param bits flowing into a struct field, for
// the summary's FieldWrites.
func (s *funcState[V]) noteFieldWrite(key string, v V) {
	if v.params() == 0 {
		return
	}
	if s.fieldWrites == nil {
		s.fieldWrites = make(map[string]uint64)
	}
	s.fieldWrites[key] |= v.params()
}

// processNode folds one AST node into the environment and the global
// field/channel state.
func (s *funcState[V]) processNode(x ast.Node) {
	switch st := x.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
			vals := s.multiValues(st.Rhs[0], len(st.Lhs))
			for i, lhs := range st.Lhs {
				s.assign(lhs, vals[i])
			}
		} else if len(st.Lhs) == len(st.Rhs) {
			for i := range st.Lhs {
				s.assign(st.Lhs[i], s.valueOf(st.Rhs[i]))
			}
		}
	case *ast.ValueSpec:
		if len(st.Names) > 1 && len(st.Values) == 1 {
			vals := s.multiValues(st.Values[0], len(st.Names))
			for i, name := range st.Names {
				s.assignIdent(name, vals[i])
			}
		} else if len(st.Names) == len(st.Values) {
			for i, name := range st.Names {
				s.assignIdent(name, s.valueOf(st.Values[i]))
			}
		}
	case *ast.RangeStmt:
		v := s.valueOf(st.X)
		if isIntegerType(typeOf(s.n.Info, st.X)) {
			// range-over-int: the key walks up to the bound.
			if st.Key != nil {
				s.assign(st.Key, v)
			}
			return
		}
		if st.Key != nil {
			s.assign(st.Key, s.d.unknown())
		}
		if st.Value != nil {
			s.assign(st.Value, v)
		}
	case *ast.SendStmt:
		if key := s.chanKey(st.Chan); key != "" {
			v := s.valueOf(st.Value)
			s.joinGlobal(s.chans, key, v)
			if v.withParams(0) != s.d.unknown() {
				s.noteChanSender(key)
			}
		}
	case *ast.CompositeLit:
		s.recordCompositeFields(st)
	case *ast.CallExpr:
		s.d.effects(s, st)
		s.applyCalleeFieldWrites(st)
	}
}

// noteChanSender records this function as a sender on the channel key
// (deduplicated; order restored by ChanSenders).
func (s *funcState[V]) noteChanSender(key string) {
	if !slices.Contains(s.senders[key], s.n.Fn) {
		s.senders[key] = append(s.senders[key], s.n.Fn)
	}
}

// applyCalleeFieldWrites replays a summarized callee's param-to-field
// writes with this call site's arguments: the global field state gets
// the argument values, and param-carrying arguments are inherited into
// this function's own FieldWrites so the flow keeps climbing.
func (s *funcState[V]) applyCalleeFieldWrites(call *ast.CallExpr) {
	fn := staticCallee(s.n.Info, call)
	if fn == nil {
		return
	}
	sum := s.summaries[fn]
	if sum == nil {
		return
	}
	for key, bits := range sum.FieldWrites {
		v := s.d.unknown()
		for i := 0; i < 64; i++ {
			if bits&(1<<uint(i)) != 0 {
				v = v.join(s.valueOf(argExpr(call, fn, i)))
			}
		}
		s.joinGlobal(s.fields, key, v)
		s.noteFieldWrite(key, v)
	}
}

// assign routes one assignment target.
func (s *funcState[V]) assign(lhs ast.Expr, v V) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		s.assignIdent(lhs, v)
	case *ast.SelectorExpr:
		if sel, ok := s.n.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			key := fieldKeyFromSelection(sel)
			s.joinGlobal(s.fields, key, v)
			s.noteFieldWrite(key, v)
		}
	case *ast.IndexExpr:
		// Coarse: storing into a container taints the container local.
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			s.assignIdent(id, v)
		}
	case *ast.StarExpr:
		// Likewise, a store through a pointer flows into the pointer local.
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			s.assignIdent(id, v)
		}
	}
}

func (s *funcState[V]) assignIdent(id *ast.Ident, v V) {
	if id.Name == "_" {
		return
	}
	obj := objectOf(s.n.Info, id)
	if obj == nil {
		return
	}
	if _, isParam := s.params[obj]; isParam {
		return // reassigned params keep their call-site value
	}
	s.envJoin(obj, v)
}

// recordCompositeFields joins each struct-literal field value into the
// global field state.
func (s *funcState[V]) recordCompositeFields(lit *ast.CompositeLit) {
	tv, ok := s.n.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	t := deref(tv.Type)
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var name string
		var valExpr ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			name, valExpr = key.Name, kv.Value
		} else if i < st.NumFields() {
			name, valExpr = st.Field(i).Name(), elt
		} else {
			continue
		}
		v := s.valueOf(valExpr)
		key := fieldKey(t, name)
		s.joinGlobal(s.fields, key, v)
		s.noteFieldWrite(key, v)
	}
}

// valueOf computes the lattice value of an expression.
func (s *funcState[V]) valueOf(e ast.Expr) V {
	if e == nil {
		return s.d.unknown()
	}
	if tv, ok := s.n.Info.Types[e]; ok && tv.Value != nil {
		return s.d.constant()
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr:
		if v, ok := s.d.read(s, e); ok {
			return v
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := objectOf(s.n.Info, e)
		if obj == nil {
			return s.d.unknown()
		}
		if i, ok := s.params[obj]; ok {
			return s.d.unknown().withParams(1 << i)
		}
		if v, ok := s.env[obj]; ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := s.n.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return s.globalGet(s.fields, fieldKeyFromSelection(sel))
		}
	case *ast.CallExpr:
		return s.callValue(e)
	case *ast.BinaryExpr:
		return s.valueOf(e.X).join(s.valueOf(e.Y))
	case *ast.UnaryExpr:
		if e.Op != token.ARROW {
			return s.valueOf(e.X)
		}
		if key := s.chanKey(e.X); key != "" {
			return s.globalGet(s.chans, key)
		}
	case *ast.ParenExpr:
		return s.valueOf(e.X)
	case *ast.StarExpr:
		return s.valueOf(e.X)
	case *ast.IndexExpr:
		return s.valueOf(e.X)
	case *ast.SliceExpr:
		return s.valueOf(e.X)
	case *ast.TypeAssertExpr:
		return s.valueOf(e.X)
	case *ast.CompositeLit:
		v := s.d.unknown()
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			v = v.join(s.valueOf(elt))
		}
		return v
	}
	return s.d.unknown()
}

// joinAll joins the values of exprs onto unknown.
func (s *funcState[V]) joinAll(exprs []ast.Expr) V {
	v := s.d.unknown()
	for _, e := range exprs {
		v = v.join(s.valueOf(e))
	}
	return v
}

// callValue computes the value of a call's (first) result for calls the
// domain does not model itself.
func (s *funcState[V]) callValue(call *ast.CallExpr) V {
	if tv, ok := s.n.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: the value passes through.
		if len(call.Args) == 1 {
			return s.valueOf(call.Args[0])
		}
		return s.d.unknown()
	}
	if fn := staticCallee(s.n.Info, call); fn != nil {
		if sum := s.summaries[fn]; sum != nil && len(sum.Results) > 0 {
			return s.applyFlow(sum.Results[0], call, fn)
		}
	}
	return s.d.unknown()
}

// applyFlow substitutes this call site's argument values for the
// callee-parameter bits in a summary value.
func (s *funcState[V]) applyFlow(res V, call *ast.CallExpr, fn *types.Func) V {
	out := res.withParams(0)
	for i := 0; i < 64; i++ {
		if res.params()&(1<<uint(i)) != 0 {
			out = out.join(s.valueOf(argExpr(call, fn, i)))
		}
	}
	return out
}

// multiValues computes the values of a multi-assignment right side.
func (s *funcState[V]) multiValues(rhs ast.Expr, n int) []V {
	out := make([]V, n)
	for i := range out {
		out[i] = s.d.unknown()
	}
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if v, ok := s.d.read(s, e); ok {
			out[0] = v
			break
		}
		if fn := staticCallee(s.n.Info, e); fn != nil {
			if sum := s.summaries[fn]; sum != nil {
				for i := 0; i < n && i < len(sum.Results); i++ {
					out[i] = s.applyFlow(sum.Results[i], e, fn)
				}
			}
		}
	case *ast.TypeAssertExpr:
		out[0] = s.valueOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			out[0] = s.valueOf(rhs)
		}
	case *ast.IndexExpr:
		out[0] = s.valueOf(e.X)
	}
	return out
}

// collectReturns joins the depth-0 return statements per result index.
// The first return is taken verbatim, like a first local write: where
// unknown is not the join identity (provenance's Constant sits below
// it), seeding the accumulator with unknown would swallow an
// all-constant result.
func (s *funcState[V]) collectReturns() []V {
	nres := s.n.Fn.Type().(*types.Signature).Results().Len()
	if nres == 0 {
		return nil
	}
	out := make([]V, nres)
	for i := range out {
		out[i] = s.d.unknown()
	}
	first := true
	walkSameFunc(s.n.Decl.Body, func(x ast.Node) {
		ret, ok := x.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return
		}
		var multi []V
		if len(ret.Results) == 1 && nres > 1 {
			multi = s.multiValues(ret.Results[0], nres)
		}
		for i := range out {
			v := s.d.unknown()
			if multi != nil {
				v = multi[i]
			} else if i < len(ret.Results) {
				v = s.valueOf(ret.Results[i])
			}
			if first {
				out[i] = v
			} else {
				out[i] = out[i].join(v)
			}
		}
		first = false
	})
	return out
}

// walkSameFunc visits nodes without descending into nested function
// literals (used where FuncLit returns must not count as the outer
// function's).
func walkSameFunc(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x != nil {
			visit(x)
		}
		return true
	})
}

// collectSinks gathers every sink evaluated in the body, including
// closures (event-loop handlers and goroutines run on behalf of the
// function that scheduled them), plus sinks propagated from summarized
// callees.
func (s *funcState[V]) collectSinks() []Sink[V] {
	var sinks []Sink[V]
	seen := make(map[string]bool)
	add := func(sink Sink[V]) {
		if s.d.sanitized(sink.Pos) {
			return
		}
		if len(sink.Chain) > maxChain {
			sink.Chain = sink.Chain[:maxChain]
		}
		key := s.g.Fset.Position(sink.Pos).String() + "|" + strings.Join(sink.Chain, "<")
		if !seen[key] {
			seen[key] = true
			sinks = append(sinks, sink)
		}
	}
	ast.Inspect(s.n.Decl.Body, func(x ast.Node) bool {
		handled := s.d.sinks(s, x, add)
		if call, ok := x.(*ast.CallExpr); ok && !handled {
			s.propagateSinks(call, add)
		}
		return true
	})
	return sinks
}

// propagateSinks adds a summarized callee's parameter sinks at this
// call site, with the callee prepended to each chain.
func (s *funcState[V]) propagateSinks(call *ast.CallExpr, add func(Sink[V])) {
	fn := staticCallee(s.n.Info, call)
	if fn == nil {
		return
	}
	sum := s.summaries[fn]
	if sum == nil {
		return
	}
	idxs := make([]int, 0, len(sum.ParamSinks))
	for i := range sum.ParamSinks {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		arg := argExpr(call, fn, i)
		if arg == nil {
			continue
		}
		inner := sum.ParamSinks[i]
		chain := append([]string{displayName(fn)}, inner.Chain...)
		add(Sink[V]{Pos: arg.Pos(), Kind: inner.Kind, Chain: chain, Val: s.valueOf(arg)})
	}
}

// chanKey keys a channel expression by its element type.
func (s *funcState[V]) chanKey(e ast.Expr) string {
	ch, ok := typeOf(s.n.Info, e).(*types.Chan)
	if !ok {
		return ""
	}
	return types.TypeString(ch.Elem(), nil)
}

// staticCallee resolves a call's single static target, nil for
// func-typed variables, builtins, and conversions. Instantiated generic
// calls (f[T](...), recv.m[T](...)) resolve to the generic declaration:
// summaries are computed per declaration, which is the right
// granularity for provenance, taint and lockset flow.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := uninstantiate(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// uninstantiate strips parens and the type-argument index of a generic
// call's callee expression: f[int] -> f, pair[K, V] -> pair.
func uninstantiate(fun ast.Expr) ast.Expr {
	fun = ast.Unparen(fun)
	for {
		switch e := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(e.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(e.X)
		default:
			return fun
		}
	}
}

// argExpr returns the expression bound to callee parameter index i at a
// call site, receiver included as index 0 for methods.
func argExpr(call *ast.CallExpr, fn *types.Func, i int) ast.Expr {
	if fn.Type().(*types.Signature).Recv() != nil {
		if i == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		i--
	}
	if i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// displayName renders a function for sink chains: pkg.Func or
// pkg.Type.Method.
func displayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := deref(sig.Recv().Type()).(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// fieldKeyFromSelection keys a field by its owner type and name.
func fieldKeyFromSelection(sel *types.Selection) string {
	return fieldKey(deref(sel.Recv()), sel.Obj().Name())
}

func fieldKey(t types.Type, field string) string {
	return types.TypeString(deref(t), nil) + "." + field
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

func isIntegerType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
