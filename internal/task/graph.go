package task

import (
	"fmt"
	"io"
	"sort"
)

// smallGraphMax is the size up to which a Graph stores tasks in an
// inline array instead of a map. The many-task workload model submits
// one task per graph, so most graphs never pay for a map at all.
const smallGraphMax = 4

// Graph is an application task graph (Fig. 7): tasks linked by data
// dependencies derived from their DataIn.SourceTask references.
type Graph struct {
	smallN int
	small  [smallGraphMax]*Task // inline storage while tasks == nil
	tasks  map[string]*Task     // built on first growth past smallGraphMax
	order  []string             // insertion order, for deterministic iteration
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// ValidateForGraph returns the error Add would give t on a graph that
// does not hold its ID yet — an invalid task or an ID the App language
// cannot carry — without building a graph.
func ValidateForGraph(t *Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return sanitizeID(t.ID)
}

// Add inserts a task. Duplicate IDs and invalid tasks are rejected.
func (g *Graph) Add(t *Task) error {
	if err := ValidateForGraph(t); err != nil {
		return err
	}
	if _, dup := g.get(t.ID); dup {
		return fmt.Errorf("task: duplicate task %s", t.ID)
	}
	switch {
	case g.tasks == nil && g.smallN < smallGraphMax:
		g.small[g.smallN] = t
		g.smallN++
	case g.tasks == nil:
		g.tasks = make(map[string]*Task, g.smallN+1)
		for _, st := range g.small[:g.smallN] {
			g.tasks[st.ID] = st
		}
		g.small, g.smallN = [smallGraphMax]*Task{}, 0
		g.tasks[t.ID] = t
	default:
		g.tasks[t.ID] = t
	}
	g.order = append(g.order, t.ID)
	return nil
}

// Len returns the task count.
func (g *Graph) Len() int { return len(g.order) }

// Get returns a task by ID.
func (g *Graph) Get(id string) (*Task, bool) {
	return g.get(id)
}

// get is the storage-aware lookup behind Get: a linear probe of the
// inline array while the graph is small, the map afterwards.
func (g *Graph) get(id string) (*Task, bool) {
	if g.tasks != nil {
		t, ok := g.tasks[id]
		return t, ok
	}
	for _, t := range g.small[:g.smallN] {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// IDs returns task IDs in insertion order.
func (g *Graph) IDs() []string { return append([]string(nil), g.order...) }

// Order returns the task IDs in insertion order as a read-only view of
// the graph's internal slice: callers must neither mutate it nor hold it
// across Add. Submission-path loops use it to avoid IDs' per-call copy.
func (g *Graph) Order() []string { return g.order }

// Dependencies returns the producer IDs a task waits for.
func (g *Graph) Dependencies(id string) []string {
	t, ok := g.get(id)
	if !ok {
		return nil
	}
	return t.DependsOn()
}

// Dependents returns the IDs of tasks consuming a task's outputs, in
// insertion order.
func (g *Graph) Dependents(id string) []string {
	var out []string
	for _, tid := range g.order {
		t, _ := g.get(tid)
		for _, dep := range t.DependsOn() {
			if dep == id {
				out = append(out, tid)
				break
			}
		}
	}
	return out
}

// Validate checks referential integrity: every input's producer exists,
// produces the referenced DataID, and the graph is acyclic.
func (g *Graph) Validate() error {
	for _, id := range g.order {
		t, _ := g.get(id)
		for _, in := range t.Inputs {
			if in.SourceTask == "" {
				continue
			}
			src, ok := g.get(in.SourceTask)
			if !ok {
				return fmt.Errorf("task: %s consumes %s from missing task %s", id, in.DataID, in.SourceTask)
			}
			found := false
			for _, o := range src.Outputs {
				if o.DataID == in.DataID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("task: %s consumes %s which %s does not produce", id, in.DataID, in.SourceTask)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological ordering (Kahn's algorithm, insertion
// order as tie-break), or an error naming a task on a cycle.
func (g *Graph) TopoOrder() ([]string, error) {
	if len(g.order) <= 1 {
		// Single-task graphs (the many-task workload model submits one
		// task per graph) cannot cycle; skip the Kahn bookkeeping.
		return append([]string(nil), g.order...), nil
	}
	indeg := make(map[string]int, len(g.order))
	for _, id := range g.order {
		indeg[id] = 0
	}
	for _, id := range g.order {
		t, _ := g.get(id)
		for _, dep := range t.DependsOn() {
			if _, ok := g.get(dep); ok {
				indeg[id]++
			}
		}
	}
	var ready []string
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, dep := range g.Dependents(id) {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(out) != len(g.order) {
		var stuck []string
		for id, d := range indeg {
			if d > 0 {
				stuck = append(stuck, id)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("task: dependency cycle involving %v", stuck)
	}
	return out, nil
}

// CriticalPath returns the longest path through the graph under the given
// per-task weight (typically t_estimated) and its total weight.
func (g *Graph) CriticalPath(weight func(*Task) float64) ([]string, float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	dist := make(map[string]float64, len(order))
	prev := make(map[string]string, len(order))
	for _, id := range order {
		t, _ := g.get(id)
		w := weight(t)
		if w < 0 {
			return nil, 0, fmt.Errorf("task: negative weight for %s", id)
		}
		best := 0.0
		bestPrev := ""
		for _, dep := range t.DependsOn() {
			if d, ok := dist[dep]; ok && d > best {
				best = d
				bestPrev = dep
			}
		}
		dist[id] = best + w
		prev[id] = bestPrev
	}
	endID, endDist := "", -1.0
	for _, id := range order {
		if dist[id] > endDist {
			endID, endDist = id, dist[id]
		}
	}
	var path []string
	for id := endID; id != ""; id = prev[id] {
		path = append(path, id)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, endDist, nil
}

// WriteDOT renders the graph in Graphviz DOT form (the way to redraw
// Fig. 7), one edge per data dependency labelled with the DataID.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "taskgraph"
	}
	if _, err := fmt.Fprintf(w, "digraph %s {\n  rankdir=LR;\n", name); err != nil {
		return err
	}
	for _, id := range g.order {
		t, _ := g.get(id)
		if _, err := fmt.Fprintf(w, "  %q [label=\"%s\\n%s\"];\n", id, id, t.ExecReq.Scenario); err != nil {
			return err
		}
	}
	for _, id := range g.order {
		t, _ := g.get(id)
		for _, in := range t.Inputs {
			if in.SourceTask == "" {
				continue
			}
			if _, err := fmt.Fprintf(w, "  %q -> %q [label=\"%s\"];\n", in.SourceTask, id, in.DataID); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Roots returns tasks with no in-graph dependencies, in insertion order.
func (g *Graph) Roots() []string {
	var out []string
	for _, id := range g.order {
		hasDep := false
		t, _ := g.get(id)
		for _, dep := range t.DependsOn() {
			if _, ok := g.get(dep); ok {
				hasDep = true
				break
			}
		}
		if !hasDep {
			out = append(out, id)
		}
	}
	return out
}
