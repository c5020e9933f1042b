package task

import (
	"slices"
	"strings"
	"testing"
)

func chainGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		tk := validSoftwareTask(idOf(i))
		tk.Outputs = []DataOut{{DataID: idOf(i) + "-out", SizeMB: 1}}
		if i > 0 {
			tk.Inputs = []DataIn{{SourceTask: idOf(i - 1), DataID: idOf(i-1) + "-out", SizeMB: 1}}
		}
		if err := g.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func idOf(i int) string { return "T" + string(rune('0'+i)) }

func TestGraphAddRejectsDuplicates(t *testing.T) {
	g := NewGraph()
	if err := g.Add(validSoftwareTask("T1")); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(validSoftwareTask("T1")); err == nil {
		t.Error("duplicate accepted")
	}
	if err := g.Add(&Task{}); err == nil {
		t.Error("invalid task accepted")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGraphValidateMissingProducer(t *testing.T) {
	g := NewGraph()
	tk := validSoftwareTask("T1")
	tk.Inputs = []DataIn{{SourceTask: "T0", DataID: "x", SizeMB: 1}}
	if err := g.Add(tk); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("missing producer accepted")
	}
}

func TestGraphValidateWrongDataID(t *testing.T) {
	g := NewGraph()
	a := validSoftwareTask("T0")
	a.Outputs = []DataOut{{DataID: "real", SizeMB: 1}}
	b := validSoftwareTask("T1")
	b.Inputs = []DataIn{{SourceTask: "T0", DataID: "imaginary", SizeMB: 1}}
	g.Add(a)
	g.Add(b)
	if err := g.Validate(); err == nil {
		t.Error("nonexistent DataID accepted")
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := chainGraph(t, 5)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Errorf("chain order broken: %v", order)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := NewGraph()
	a := validSoftwareTask("Ta")
	a.Outputs = []DataOut{{DataID: "da", SizeMB: 1}}
	a.Inputs = []DataIn{{SourceTask: "Tb", DataID: "db", SizeMB: 1}}
	b := validSoftwareTask("Tb")
	b.Outputs = []DataOut{{DataID: "db", SizeMB: 1}}
	b.Inputs = []DataIn{{SourceTask: "Ta", DataID: "da", SizeMB: 1}}
	g.Add(a)
	g.Add(b)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate missed the cycle")
	}
}

func TestFig7GraphPaperDependencies(t *testing.T) {
	g := Fig7Graph()
	if g.Len() != 18 {
		t.Fatalf("Fig. 7 graph has %d tasks, want 18", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantDeps := map[string][]string{
		"T8":  {"T0", "T2", "T5"},
		"T11": {"T7", "T9", "T13"},
		"T13": {"T7", "T8"},
		"T17": {"T7", "T13"},
	}
	for id, want := range wantDeps {
		got := g.Dependencies(id)
		if len(got) != len(want) {
			t.Errorf("%s deps = %v, want %v", id, got, want)
			continue
		}
		gotSet := map[string]bool{}
		for _, d := range got {
			gotSet[d] = true
		}
		for _, w := range want {
			if !gotSet[w] {
				t.Errorf("%s missing paper dependency %s", id, w)
			}
		}
	}
}

func TestDependents(t *testing.T) {
	g := Fig7Graph()
	deps := g.Dependents("T7")
	want := map[string]bool{"T11": true, "T13": true, "T17": true}
	if len(deps) != 3 {
		t.Fatalf("T7 dependents = %v", deps)
	}
	for _, d := range deps {
		if !want[d] {
			t.Errorf("unexpected dependent %s", d)
		}
	}
	if g.Dependents("T16") != nil {
		t.Error("sink should have no dependents")
	}
	if g.Dependencies("missing") != nil {
		t.Error("missing task should have nil dependencies")
	}
}

func TestCriticalPath(t *testing.T) {
	g := chainGraph(t, 4)
	path, total, err := g.CriticalPath(func(tk *Task) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 || total != 4 {
		t.Errorf("critical path = %v (%v), want full chain", path, total)
	}
	if _, _, err := g.CriticalPath(func(tk *Task) float64 { return -1 }); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestCriticalPathFig7(t *testing.T) {
	g := Fig7Graph()
	path, total, err := g.CriticalPath(func(tk *Task) float64 { return tk.EstimatedSeconds })
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 4 || total <= 0 {
		t.Errorf("Fig. 7 critical path = %v (%v)", path, total)
	}
	// Each consecutive pair must be a real dependency edge.
	for i := 1; i < len(path); i++ {
		found := false
		for _, dep := range g.Dependencies(path[i]) {
			if dep == path[i-1] {
				found = true
			}
		}
		if !found {
			t.Errorf("critical path step %s→%s is not an edge", path[i-1], path[i])
		}
	}
}

// TestRoots: the Fig. 7 tasks without dependencies are exactly
// T0, T1, T2, T3, T5 and T7.
func TestRoots(t *testing.T) {
	g := Fig7Graph()
	var roots []string
	for _, id := range g.IDs() {
		if len(g.Dependencies(id)) == 0 {
			roots = append(roots, id)
		}
	}
	if want := []string{"T0", "T1", "T2", "T3", "T5", "T7"}; !slices.Equal(roots, want) {
		t.Errorf("roots = %v, want %v", roots, want)
	}
}

func TestGetAndIDs(t *testing.T) {
	g := chainGraph(t, 3)
	if _, ok := g.Get("T1"); !ok {
		t.Error("Get missed existing task")
	}
	if _, ok := g.Get("T9"); ok {
		t.Error("Get invented a task")
	}
	ids := g.IDs()
	if len(ids) != 3 || ids[0] != "T0" {
		t.Errorf("IDs = %v", ids)
	}
}

func TestWriteDOT(t *testing.T) {
	g := Fig7Graph()
	var b strings.Builder
	if err := g.WriteDOT(&b, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "digraph taskgraph {") {
		t.Errorf("header: %q", out[:30])
	}
	// The paper's stated edges must appear.
	for _, edge := range []string{`"T0" -> "T8"`, `"T7" -> "T13"`, `"T7" -> "T11"`, `"T13" -> "T17"`} {
		if !strings.Contains(out, edge) {
			t.Errorf("missing edge %s", edge)
		}
	}
	if !strings.Contains(out, "Software-only") {
		t.Error("node labels missing scenario")
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("unterminated digraph")
	}
}
