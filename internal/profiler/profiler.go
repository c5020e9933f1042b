// Package profiler is an instrumenting call-graph profiler producing
// gprof-style flat profiles — the tool role gprof plays in the paper's case
// study ("we first identified compute-intensive methods in the application
// using gprof"; Fig. 10 shows the top-10 kernels of ClustalW).
//
// Instrumented code brackets each kernel with Enter/Leave. The profiler
// attributes wall time to the innermost active kernel (self time) and to
// every frame on the stack (cumulative time), and tracks caller→callee
// edges for the call graph.
package profiler

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Profiler collects per-kernel timing. It is not safe for concurrent use:
// profile one goroutine's computation at a time, as gprof does for a
// single-threaded ClustalW run. A nil *Profiler is valid and records
// nothing, so instrumentation can stay in place unconditionally.
type Profiler struct {
	// now is the time source; tests may replace it for determinism.
	now   func() time.Duration
	stack []frame
	nodes map[string]*node
	edges map[edge]*edgeStat
}

type frame struct {
	name    string
	entered time.Duration // when this frame became active
	lastRun time.Duration // start of the current self-time span
	child   time.Duration // time spent in callees
}

type node struct {
	name  string
	calls uint64
	self  time.Duration
	cum   time.Duration
	depth int // current recursion depth, to avoid double-counting cum
}

type edge struct{ caller, callee string }

type edgeStat struct {
	calls uint64
	time  time.Duration
}

// New returns an empty profiler using the monotonic wall clock.
func New() *Profiler {
	base := time.Now()
	return NewWithClock(func() time.Duration { return time.Since(base) })
}

// NewWithClock returns a profiler driven by an explicit clock, for
// deterministic tests.
func NewWithClock(clock func() time.Duration) *Profiler {
	return &Profiler{
		now:   clock,
		nodes: make(map[string]*node),
		edges: make(map[edge]*edgeStat),
	}
}

// Enter pushes a kernel activation. Use as:
//
//	defer prof.Enter("pairalign")()
//
// The returned func pops the activation; it must be called exactly once.
func (p *Profiler) Enter(name string) func() {
	if p == nil {
		return func() {}
	}
	t := p.now()
	if len(p.stack) > 0 {
		// Close the caller's self-time span.
		top := &p.stack[len(p.stack)-1]
		p.node(top.name).self += t - top.lastRun
	}
	p.stack = append(p.stack, frame{name: name, entered: t, lastRun: t})
	n := p.node(name)
	n.calls++
	n.depth++
	if len(p.stack) > 1 {
		caller := p.stack[len(p.stack)-2].name
		e := edge{caller, name}
		st, ok := p.edges[e]
		if !ok {
			st = &edgeStat{}
			p.edges[e] = st
		}
		st.calls++
	}
	return func() { p.leave(name) }
}

func (p *Profiler) leave(name string) {
	t := p.now()
	if len(p.stack) == 0 {
		panic(fmt.Sprintf("profiler: leave %q with empty stack", name))
	}
	top := p.stack[len(p.stack)-1]
	if top.name != name {
		panic(fmt.Sprintf("profiler: leave %q but innermost frame is %q", name, top.name))
	}
	p.stack = p.stack[:len(p.stack)-1]
	n := p.node(name)
	n.self += t - top.lastRun
	total := t - top.entered
	n.depth--
	if n.depth == 0 {
		// Only outermost activations add to cumulative time, so recursion
		// does not double-count.
		n.cum += total
	}
	if len(p.stack) > 0 {
		parent := &p.stack[len(p.stack)-1]
		parent.lastRun = t
		parent.child += total
		e := edge{parent.name, name}
		if st, ok := p.edges[e]; ok {
			st.time += total
		}
	}
}

func (p *Profiler) node(name string) *node {
	n, ok := p.nodes[name]
	if !ok {
		n = &node{name: name}
		p.nodes[name] = n
	}
	return n
}

// FlatLine is one row of the gprof-style flat profile.
type FlatLine struct {
	Name       string
	Calls      uint64
	Self       time.Duration
	Cumulative time.Duration
	// SelfPercent is self time as a share of total profiled time, the
	// number Fig. 10 reports per kernel.
	SelfPercent float64
}

// TotalSelf returns the total profiled self time across kernels.
func (p *Profiler) TotalSelf() time.Duration {
	if p == nil {
		return 0
	}
	var total time.Duration
	for _, n := range p.nodes {
		total += n.self
	}
	return total
}

// Flat returns the flat profile sorted by self time descending, ties broken
// by name for determinism.
func (p *Profiler) Flat() []FlatLine {
	if p == nil {
		return nil
	}
	total := p.TotalSelf()
	out := make([]FlatLine, 0, len(p.nodes))
	for _, n := range p.nodes {
		line := FlatLine{Name: n.name, Calls: n.calls, Self: n.self, Cumulative: n.cum}
		if total > 0 {
			line.SelfPercent = 100 * float64(n.self) / float64(total)
		}
		out = append(out, line)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Top returns the first n flat-profile lines (fewer if not enough kernels),
// matching Fig. 10's "top 10 compute-intensive kernels".
func (p *Profiler) Top(n int) []FlatLine {
	flat := p.Flat()
	if len(flat) > n {
		flat = flat[:n]
	}
	return flat
}

// EdgeLine is one caller→callee row of the call graph.
type EdgeLine struct {
	Caller string
	Callee string
	Calls  uint64
	Time   time.Duration
}

// CallGraph returns caller→callee edges sorted by time descending.
func (p *Profiler) CallGraph() []EdgeLine {
	if p == nil {
		return nil
	}
	out := make([]EdgeLine, 0, len(p.edges))
	for e, st := range p.edges {
		out = append(out, EdgeLine{e.caller, e.callee, st.calls, st.time})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// WriteFlat renders a gprof-style flat profile table.
func (p *Profiler) WriteFlat(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%7s %12s %12s %9s  %s\n", "% time", "self", "cumulative", "calls", "name"); err != nil {
		return err
	}
	for _, l := range p.Flat() {
		if _, err := fmt.Fprintf(w, "%6.2f%% %12s %12s %9d  %s\n",
			l.SelfPercent, l.Self.Round(time.Microsecond), l.Cumulative.Round(time.Microsecond), l.Calls, l.Name); err != nil {
			return err
		}
	}
	return nil
}

// String renders the flat profile.
func (p *Profiler) String() string {
	var b strings.Builder
	if err := p.WriteFlat(&b); err != nil {
		return fmt.Sprintf("profiler: %v", err)
	}
	return b.String()
}
