package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AcqEdge is one "acquired To while holding From" observation: the
// acquisition happened at Pos inside Fn, reached through Chain
// (outermost caller first; one element for a direct acquisition).
type AcqEdge struct {
	From, To string
	Fn       *types.Func
	Pos      token.Pos
	Chain    []string
}

// LockGraph is the whole-program acquires-while-holding relation over
// lock classes, plus the per-function flow-sensitive lockset results it
// was built from.
type LockGraph struct {
	// Edges maps From -> To -> the witnessing acquisition sites.
	Edges map[string]map[string][]AcqEdge
	// Locks holds each analyzed function's lockset analysis.
	Locks map[*types.Func]*FuncLocks
	// acquires is the transitive may-acquire summary: lock class -> a
	// representative chain of function display names leading to the
	// acquisition, bounded at maxChain hops.
	acquires map[*types.Func]map[string][]string
}

// LockGraph computes (once per Graph) the flow-sensitive lockset
// analysis for every function and the interprocedural lock-order graph
// on top of it.
func (g *Graph) LockGraph() *LockGraph {
	g.lockOnce.Do(func() { g.lockGraph = g.buildLockGraph() })
	return g.lockGraph
}

func (g *Graph) buildLockGraph() *LockGraph {
	lg := &LockGraph{
		Edges:    make(map[string]map[string][]AcqEdge),
		Locks:    make(map[*types.Func]*FuncLocks),
		acquires: make(map[*types.Func]map[string][]string),
	}
	funcs := g.SortedFuncs()
	for _, n := range funcs {
		lg.Locks[n.Fn] = AnalyzeLocks(n.Info, n.Decl.Body)
	}

	// Transitive may-acquire fixpoint: TA(f) = direct(f) ∪ ⋃ TA(callee),
	// chains kept short and deterministic.
	for round := 0; round < maxChain+1; round++ {
		changed := false
		for _, n := range funcs {
			ta := lg.acquires[n.Fn]
			if ta == nil {
				ta = make(map[string][]string)
				lg.acquires[n.Fn] = ta
			}
			for _, acq := range lg.Locks[n.Fn].Acquires {
				if _, ok := ta[acq.Lock.Class]; !ok {
					ta[acq.Lock.Class] = []string{displayName(n.Fn)}
					changed = true
				}
			}
			for _, callee := range n.SortedCallees() {
				sub := lg.acquires[callee]
				classes := make([]string, 0, len(sub))
				for class := range sub {
					classes = append(classes, class)
				}
				sort.Strings(classes)
				for _, class := range classes {
					if _, ok := ta[class]; ok {
						continue
					}
					chain := sub[class]
					if len(chain) >= maxChain {
						continue
					}
					ta[class] = append([]string{displayName(n.Fn)}, chain...)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Edges. Direct: each acquisition with a non-empty held set. Through
	// calls: a call executed under a held set reaches every class the
	// callee may transitively acquire.
	for _, n := range funcs {
		fl := lg.Locks[n.Fn]
		for _, acq := range fl.Acquires {
			for _, fromClass := range acq.Held.SortedClasses() {
				if fromClass == acq.Lock.Class {
					continue // recursive re-acquire is selfDeadlock's domain, not ordering
				}
				lg.addEdge(AcqEdge{
					From: fromClass, To: acq.Lock.Class,
					Fn: n.Fn, Pos: acq.Pos, Chain: []string{displayName(n.Fn)},
				})
			}
		}
		for _, blk := range fl.CFG.Blocks {
			for _, node := range blk.Nodes {
				held := fl.Before[node]
				if len(held) == 0 {
					continue
				}
				walkNodeCalls(node, func(call *ast.CallExpr) {
					if _, isLock := classifyLockCall(n.Info, call); isLock {
						return // already handled as a direct acquisition
					}
					callee := staticCallee(n.Info, call)
					if callee == nil {
						return
					}
					sub := lg.acquires[callee]
					if len(sub) == 0 {
						return
					}
					classes := make([]string, 0, len(sub))
					for c := range sub {
						classes = append(classes, c)
					}
					sort.Strings(classes)
					for _, toClass := range classes {
						for _, fromClass := range held.SortedClasses() {
							if fromClass == toClass {
								continue
							}
							chain := append([]string{displayName(n.Fn)}, sub[toClass]...)
							if len(chain) > maxChain {
								chain = chain[:maxChain]
							}
							lg.addEdge(AcqEdge{
								From: fromClass, To: toClass,
								Fn: n.Fn, Pos: call.Pos(), Chain: chain,
							})
						}
					}
				})
			}
		}
	}
	return lg
}

func (lg *LockGraph) addEdge(e AcqEdge) {
	m := lg.Edges[e.From]
	if m == nil {
		m = make(map[string][]AcqEdge)
		lg.Edges[e.From] = m
	}
	m[e.To] = append(m[e.To], e)
}

// Cycle is one deadlock candidate: a cyclic lock-order chain. Classes
// lists the classes in cycle order (len ≥ 2 — recursive single-lock
// re-acquisition is reported separately); Witness holds one AcqEdge per
// hop, so a report can show both (all) acquisition chains.
type Cycle struct {
	Classes []string
	Witness []AcqEdge
}

// Cycles enumerates elementary cycles in the acquires-while-holding
// graph deterministically (lexicographically smallest class first).
// Each cycle is reported once, rotated so its smallest class leads.
func (lg *LockGraph) Cycles() []Cycle {
	classes := make([]string, 0, len(lg.Edges))
	for c := range lg.Edges {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	var cycles []Cycle
	seen := make(map[string]bool)
	// Bounded DFS from each class; cycles longer than maxChain classes
	// are beyond any realistic lock hierarchy and are cut off.
	var path []string
	var dfs func(start, cur string)
	dfs = func(start, cur string) {
		if len(path) > maxChain {
			return
		}
		next := lg.Edges[cur]
		tos := make([]string, 0, len(next))
		for t := range next {
			tos = append(tos, t)
		}
		sort.Strings(tos)
		for _, t := range tos {
			if t == start && len(path) >= 2 {
				key := canonicalCycleKey(path)
				if !seen[key] {
					seen[key] = true
					cycles = append(cycles, lg.witnessCycle(path))
				}
				continue
			}
			if t <= start { // canonical start is the smallest class
				continue
			}
			onPath := false
			for _, p := range path {
				if p == t {
					onPath = true
					break
				}
			}
			if onPath {
				continue
			}
			path = append(path, t)
			dfs(start, t)
			path = path[:len(path)-1]
		}
	}
	for _, c := range classes {
		path = []string{c}
		dfs(c, c)
	}
	sort.Slice(cycles, func(i, j int) bool {
		return canonicalCycleKey(cycles[i].Classes) < canonicalCycleKey(cycles[j].Classes)
	})
	return cycles
}

// witnessCycle attaches one witnessing edge per hop of the class path.
func (lg *LockGraph) witnessCycle(path []string) Cycle {
	c := Cycle{Classes: append([]string(nil), path...)}
	for i := range path {
		from := path[i]
		to := path[(i+1)%len(path)]
		edges := lg.Edges[from][to]
		best := edges[0]
		for _, e := range edges[1:] {
			if e.Pos < best.Pos {
				best = e
			}
		}
		c.Witness = append(c.Witness, best)
	}
	return c
}

func canonicalCycleKey(path []string) string {
	key := ""
	for _, p := range path {
		key += p + "->"
	}
	return key
}

// SelfDeadlocks reports acquisitions of a lock class that is already
// held (sync.Mutex is not reentrant: mu.Lock() under mu.Lock() is a
// guaranteed deadlock; RLock under Lock likewise). Write-under-read
// (Lock while RLock held) is included; RLock under RLock is excluded —
// legal, though it can starve under a pending writer.
func (lg *LockGraph) SelfDeadlocks() []AcqEdge {
	var out []AcqEdge
	fns := make([]*types.Func, 0, len(lg.Locks))
	for fn := range lg.Locks {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		for _, acq := range lg.Locks[fn].Acquires {
			prior, held := acq.Held[acq.Lock.Class]
			if !held {
				continue
			}
			// Same class but a different instance (a.mu then b.mu on two
			// values of one type) is lock ordering, not re-acquisition.
			if prior.Lock.Root != acq.Lock.Root || prior.Lock.Path != acq.Lock.Path {
				continue
			}
			if prior.Lock.Reader && acq.Lock.Reader {
				continue // RLock under RLock
			}
			out = append(out, AcqEdge{
				From: acq.Lock.Class, To: acq.Lock.Class,
				Fn: fn, Pos: acq.Pos, Chain: []string{displayName(fn)},
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
