package grid

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/sim"
)

func appSpec(apps int) AppSpec {
	return AppSpec{
		Apps:     apps,
		MinTasks: 3,
		MaxTasks: 8,
		EdgeProb: 0.3,
		Base:     DefaultWorkload(1, 0.2),
	}
}

func TestGenerateAppsValidDAGs(t *testing.T) {
	apps, err := GenerateApps(sim.NewRNG(14), appSpec(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 20 {
		t.Fatalf("apps = %d", len(apps))
	}
	var prev sim.Time
	totalEdges := 0
	for _, app := range apps {
		if app.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = app.Arrival
		if err := app.Graph.Validate(); err != nil {
			t.Fatalf("invalid app graph: %v", err)
		}
		n := app.Graph.Len()
		if n < 3 || n > 8 {
			t.Errorf("app size %d outside [3,8]", n)
		}
		for _, id := range app.Graph.IDs() {
			totalEdges += len(app.Graph.Dependencies(id))
		}
	}
	if totalEdges == 0 {
		t.Error("no dependencies generated at EdgeProb 0.3")
	}
}

func TestGenerateAppsValidation(t *testing.T) {
	bad := []AppSpec{
		{},
		{Apps: 1, MinTasks: 0, MaxTasks: 2, Base: DefaultWorkload(1, 1)},
		{Apps: 1, MinTasks: 5, MaxTasks: 2, Base: DefaultWorkload(1, 1)},
		{Apps: 1, MinTasks: 1, MaxTasks: 2, EdgeProb: 1.5, Base: DefaultWorkload(1, 1)},
		{Apps: 1, MinTasks: 1, MaxTasks: 2},
	}
	for i, s := range bad {
		if _, err := GenerateApps(sim.NewRNG(1), s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSubmitAppsRunsAllTasksRespectingDeps(t *testing.T) {
	apps, err := GenerateApps(sim.NewRNG(15), appSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, app := range apps {
		total += app.Graph.Len()
	}
	rec := &obs.Recorder{}
	cfg := DefaultConfig()
	cfg.Tracer = rec
	tc, _ := DefaultToolchain()
	reg, _ := BuildGrid(DefaultGridSpec())
	mm, _ := rms.NewMatchmaker(reg, tc)
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	eng.SubmitApps(apps, "dag")
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != total {
		t.Fatalf("completed %d of %d tasks", m.Completed, total)
	}
	// Dependency causality from the trace: a task dispatches only after
	// all its producers completed.
	completeAt := map[string]sim.Time{}
	dispatchAt := map[string]sim.Time{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindComplete:
			completeAt[ev.TaskID.String()] = ev.Time
		case obs.KindDispatch:
			dispatchAt[ev.TaskID.String()] = ev.Time
		}
	}
	for _, app := range apps {
		for _, id := range app.Graph.IDs() {
			for _, dep := range app.Graph.Dependencies(id) {
				if dispatchAt[id] < completeAt[dep] {
					t.Errorf("%s dispatched before dependency %s completed", id, dep)
				}
			}
		}
	}
}

func TestGenerateAppsDeterministic(t *testing.T) {
	a, _ := GenerateApps(sim.NewRNG(9), appSpec(5))
	b, _ := GenerateApps(sim.NewRNG(9), appSpec(5))
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Graph.Len() != b[i].Graph.Len() {
			t.Fatal("nondeterministic app generation")
		}
	}
}
