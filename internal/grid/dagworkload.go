package grid

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/sim"
	"repro/internal/task"
)

// AppSpec describes a stream of randomly structured DAG applications — the
// application task graphs of Fig. 7, generated at scale. Each application
// is a random DAG whose tasks draw from the same distributions and
// scenario mix as the base workload.
type AppSpec struct {
	// Apps is the number of applications to generate.
	Apps int
	// MinTasks and MaxTasks bound each application's size.
	MinTasks, MaxTasks int
	// EdgeProb is the probability that task i consumes task j's output
	// (for each j < i); higher values mean deeper, more serial DAGs.
	EdgeProb float64
	// Base supplies the per-task distributions and scenario shares; its
	// Tasks and Interarrival fields are reused for arrival spacing between
	// applications.
	Base WorkloadSpec
}

// Validate reports impossible app specs.
func (a AppSpec) Validate() error {
	switch {
	case a.Apps <= 0:
		return fmt.Errorf("grid: app workload needs applications")
	case a.MinTasks < 1 || a.MaxTasks < a.MinTasks:
		return fmt.Errorf("grid: bad app size bounds [%d,%d]", a.MinTasks, a.MaxTasks)
	case a.EdgeProb < 0 || a.EdgeProb > 1:
		return fmt.Errorf("grid: edge probability %g outside [0,1]", a.EdgeProb)
	}
	base := a.Base
	base.Tasks = 1
	return base.Validate()
}

// GeneratedApp is one application: a task graph and its arrival time.
type GeneratedApp struct {
	Graph   *task.Graph
	Arrival sim.Time
}

// GenerateApps draws a deterministic stream of DAG applications.
func GenerateApps(rng *sim.RNG, spec AppSpec) ([]GeneratedApp, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	out := make([]GeneratedApp, 0, spec.Apps)
	reqs := newSpecReqs(&spec.Base)
	var now sim.Time
	for a := 0; a < spec.Apps; a++ {
		now += sim.Time(spec.Base.Interarrival.Sample(rng))
		n := spec.MinTasks
		if spec.MaxTasks > spec.MinTasks {
			n += rng.Intn(spec.MaxTasks - spec.MinTasks + 1)
		}
		g := task.NewGraph()
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("app%03d-t%02d", a, i)
			ids[i] = id
			rec := Generated{ID: id}
			if err := reqs.draw(rng, &rec); err != nil {
				return nil, err
			}
			t := rec.tuple()
			t.Inputs = []task.DataIn{{DataID: "in", SizeMB: t.Work.DataMB}}
			t.Outputs = []task.DataOut{{DataID: "out", SizeMB: t.Work.DataMB / 4}}
			// Wire dependencies to earlier tasks of the same application.
			for j := 0; j < i; j++ {
				if rng.Float64() < spec.EdgeProb {
					t.Inputs = append(t.Inputs, task.DataIn{
						SourceTask: ids[j],
						DataID:     "out",
						SizeMB:     1,
					})
				}
			}
			if err := g.Add(&t); err != nil {
				return nil, err
			}
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		out = append(out, GeneratedApp{Graph: g, Arrival: now})
	}
	return out, nil
}

// SubmitApps streams DAG applications into the engine in (Arrival,
// index) order; each runs in graph mode, dispatching tasks as their
// dependencies complete. Each application is read from the slice when
// it arrives, so the caller must not modify apps until Run returns.
func (e *Engine) SubmitApps(apps []GeneratedApp, user string) {
	designs := map[string]*hdl.Design{}
	for _, app := range apps {
		for _, id := range app.Graph.IDs() {
			t, _ := app.Graph.Get(id)
			addDesign(designs, &t.ExecReq)
		}
	}
	e.prewarm(designs)
	e.stream(len(apps), "submit", func(i int) sim.Time { return apps[i].Arrival }, func(i int) {
		e.admit(user, apps[i].Graph, nil, jss.QoS{})
	})
}
