package grid

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
)

// checkFabricInvariants asserts, for one node, that no fabric oversubscribes
// its device: allocated slices never exceed capacity, free counters never go
// negative, and busy regions are within the region population.
func checkFabricInvariants(t *testing.T, n *node.Node, when sim.Time) {
	t.Helper()
	for _, el := range n.RPEs() {
		dev := el.Fabric.Device()
		st := el.Fabric.State()
		allocated := 0
		busy := 0
		for _, r := range el.Fabric.Regions() {
			if r.Slices <= 0 {
				t.Errorf("t=%v %s/%s: region with %d slices", when, n.ID, el.ID, r.Slices)
			}
			allocated += r.Slices
			if r.Busy {
				busy++
			}
		}
		if allocated > dev.FPGACaps.Slices {
			t.Errorf("t=%v %s/%s: %d slices allocated on a %d-slice device",
				when, n.ID, el.ID, allocated, dev.FPGACaps.Slices)
		}
		if st.AvailableSlices < 0 || st.AvailableSlices > st.TotalSlices {
			t.Errorf("t=%v %s/%s: available slices %d of %d", when, n.ID, el.ID, st.AvailableSlices, st.TotalSlices)
		}
		if st.BusyRegions != busy {
			t.Errorf("t=%v %s/%s: state reports %d busy regions, fabric has %d",
				when, n.ID, el.ID, st.BusyRegions, busy)
		}
		if st.AvailableBRAMKb < 0 || st.AvailableDSP < 0 {
			t.Errorf("t=%v %s/%s: negative secondary resources (%d BRAM, %d DSP)",
				when, n.ID, el.ID, st.AvailableBRAMKb, st.AvailableDSP)
		}
	}
}

// checkConservation asserts the task-conservation invariant at drain:
// every submitted task is exactly one of completed, unfinished (queued,
// backing off, or stranded in flight), or lost.
func checkConservation(t *testing.T, m *Metrics, submitted int) {
	t.Helper()
	if m.Submitted != submitted {
		t.Errorf("[%s] %d tasks entered the queue, expected %d", m.Strategy, m.Submitted, submitted)
	}
	if got := m.Completed + m.Unfinished + m.TasksLost; got != m.Submitted {
		t.Errorf("[%s] conservation broken: completed=%d + unfinished=%d + lost=%d = %d, submitted %d",
			m.Strategy, m.Completed, m.Unfinished, m.TasksLost, got, m.Submitted)
	}
	if m.Completed < 0 || m.Unfinished < 0 || m.TasksLost < 0 {
		t.Errorf("[%s] negative task counter: %+v", m.Strategy, m)
	}
}

// invariantScenarios are the workload × fault settings every strategy is
// checked under.
func invariantScenarios() map[string]*faults.Spec {
	return map[string]*faults.Spec{
		"fault-free": nil,
		"hostile":    hostileFaults(),
	}
}

// TestTaskConservationAcrossStrategies runs every registered strategy
// under every scenario and asserts conservation from the public
// RunScenario surface.
//
//scenario:differential strategy=all regime=none,hostile workload=default
func TestTaskConservationAcrossStrategies(t *testing.T) {
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 40
	for scenario, fs := range invariantScenarios() {
		for _, strat := range sched.All() {
			strat, fs := strat, fs
			t.Run(scenario+"/"+strat.Name(), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.Strategy = strat
				m, err := RunScenario(context.Background(), ScenarioSpec{
					Seed:      1234,
					Config:    cfg,
					Grid:      DefaultGridSpec(),
					Workload:  DefaultWorkload(tasks, 1),
					Toolchain: tc,
					Faults:    fs,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkConservation(t, m, tasks)
			})
		}
	}
}

// TestConservationUnderHorizon: cutting a faulty run off mid-flight must
// still account for every task that had entered the queue by the cutoff
// (in-flight and backing-off tasks land in Unfinished; arrivals after
// the horizon never submit).
func TestConservationUnderHorizon(t *testing.T) {
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 40
	for _, horizon := range []sim.Time{10, 30, 80} {
		cfg := DefaultConfig()
		cfg.Horizon = horizon
		m, err := RunScenario(context.Background(), ScenarioSpec{
			Seed:      77,
			Config:    cfg,
			Grid:      DefaultGridSpec(),
			Workload:  DefaultWorkload(tasks, 2),
			Toolchain: tc,
			Faults:    hostileFaults(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Submitted > tasks {
			t.Errorf("horizon %v: %d submitted of a %d-task workload", horizon, m.Submitted, tasks)
		}
		if got := m.Completed + m.Unfinished + m.TasksLost; got != m.Submitted {
			t.Errorf("horizon %v: conservation broken: completed=%d + unfinished=%d + lost=%d = %d, submitted %d",
				horizon, m.Completed, m.Unfinished, m.TasksLost, got, m.Submitted)
		}
	}
}

// TestFabricCapacityInvariantDuringFaultyRun drives an engine directly
// so fabric state can be probed while faults strike: at every probe
// tick, on every node (registered or down), allocations must fit the
// device.
func TestFabricCapacityInvariantDuringFaultyRun(t *testing.T) {
	for _, strat := range sched.All() {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			t.Parallel()
			reg, err := BuildGrid(DefaultGridSpec())
			if err != nil {
				t.Fatal(err)
			}
			tc, _ := DefaultToolchain()
			mm, err := rms.NewMatchmaker(reg, tc)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Strategy = strat
			fs := hostileFaults()
			fs.HorizonSeconds = 120
			cfg.Faults = fs
			eng, err := NewEngine(cfg, reg, mm)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := Generate(sim.NewRNG(55), DefaultWorkload(40, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.SubmitWorkload(gen); err != nil {
				t.Fatal(err)
			}
			ids := make([]string, 0, reg.Len())
			nodes := map[string]*node.Node{}
			for _, n := range reg.Nodes() {
				ids = append(ids, n.ID)
				nodes[n.ID] = n
			}
			cur, err := faults.NewCursor(sim.NewRNG(55).Split(faults.ScheduleStream), *fs, ids)
			if err != nil {
				t.Fatal(err)
			}
			eng.InjectFaults(cur)
			// Probe every 2 s through the fault window: fabric invariants
			// must hold at every instant, including mid-outage.
			for probeT := sim.Time(2); probeT <= 140; probeT += 2 {
				at := probeT
				eng.S.Schedule(at, "probe", func() {
					for _, id := range ids {
						checkFabricInvariants(t, nodes[id], at)
					}
				})
			}
			m, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, m, 40)
			// End state: all outages in this schedule recover, so the
			// grid must be whole again and fully idle.
			for _, id := range ids {
				checkFabricInvariants(t, nodes[id], eng.S.Now())
				for _, el := range nodes[id].Elements() {
					if el.Busy() {
						t.Errorf("%s/%s still busy after drain", id, el.ID)
					}
				}
			}
			if eng.Reg.Len() != len(ids) {
				t.Errorf("registry has %d of %d nodes after drain", eng.Reg.Len(), len(ids))
			}
		})
	}
}
