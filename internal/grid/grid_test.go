package grid

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/jss"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestGridSpecValidate(t *testing.T) {
	if err := DefaultGridSpec().Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
	bad := []GridSpec{
		{},
		{GPPNodes: -1, HybridNodes: 1, RPEDevices: []string{"XC5VLX110T"}},
		{GPPNodes: 1, GPPsPerNode: 0},
		{HybridNodes: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestBuildGrid(t *testing.T) {
	reg, err := BuildGrid(DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 4 {
		t.Fatalf("nodes = %d", reg.Len())
	}
	hybrid, ok := reg.Node("Node2")
	if !ok || len(hybrid.RPEs()) != 2 {
		t.Error("hybrid node shape wrong")
	}
	if _, err := BuildGrid(GridSpec{HybridNodes: 1, RPEDevices: []string{"bogus"}}); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestWorkloadGeneration(t *testing.T) {
	spec := DefaultWorkload(200, 0.5)
	gen, err := Generate(sim.NewRNG(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen) != 200 {
		t.Fatalf("generated %d", len(gen))
	}
	counts := map[pe.Scenario]int{}
	var prev sim.Time
	for _, g := range gen {
		if tk := g.tuple(); tk.Validate() != nil {
			t.Fatalf("generated invalid task: %v", tk.Validate())
		}
		if g.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = g.Arrival
		counts[g.ExecReq.Scenario]++
	}
	// Mix roughly honours the shares (50/20/30 over 200 tasks).
	if counts[pe.SoftwareOnly] < 60 || counts[pe.UserDefinedHW] < 30 || counts[pe.PredeterminedHW] < 15 {
		t.Errorf("scenario mix = %v", counts)
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := DefaultWorkload(0, 1)
	if _, err := Generate(sim.NewRNG(1), bad); err == nil {
		t.Error("zero tasks accepted")
	}
	s := DefaultWorkload(10, 1)
	s.ShareSoftcore = 0.8
	s.ShareUserHW = 0.5
	if _, err := Generate(sim.NewRNG(1), s); err == nil {
		t.Error("shares >1 accepted")
	}
	s = DefaultWorkload(10, 1)
	s.Designs = nil
	if _, err := Generate(sim.NewRNG(1), s); err == nil {
		t.Error("user HW share without designs accepted")
	}
}

// TestWorkloadDeterministic: the same seed generates the same workload,
// including the GPU branch, which draws its own parallel fraction.
func TestWorkloadDeterministic(t *testing.T) {
	gpu := DefaultWorkload(50, 1)
	gpu.ShareGPU = 0.3
	for _, spec := range []WorkloadSpec{DefaultWorkload(50, 1), gpu} {
		a, err := Generate(sim.NewRNG(9), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(sim.NewRNG(9), spec)
		gpuTasks := 0
		for i := range a {
			if a[i].Arrival != b[i].Arrival || a[i].ID != b[i].ID ||
				a[i].Work != b[i].Work {
				t.Fatalf("ShareGPU=%v: generation not deterministic at task %d", spec.ShareGPU, i)
			}
			if a[i].ExecReq.Requirements.Kind() == capability.KindGPU {
				gpuTasks++
			}
		}
		if spec.ShareGPU > 0 && gpuTasks == 0 {
			t.Errorf("ShareGPU=%v drew no GPU task", spec.ShareGPU)
		}
	}
}

// TestWorkloadIDMatchesSprintf: Generate's task IDs stay byte-identical
// to fmt.Sprintf("wl-%05d", i), padded below 10^5 and not above.
func TestWorkloadIDMatchesSprintf(t *testing.T) {
	var ids strings.Builder
	for _, i := range []int{0, 7, 10, 9999, 10000, 99_999, 100_000, 123_456} {
		start := ids.Len()
		writeWorkloadID(&ids, i)
		if got, want := ids.String()[start:], fmt.Sprintf("wl-%05d", i); got != want {
			t.Errorf("writeWorkloadID(%d) wrote %q, want %q", i, got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
}

func runSmall(t *testing.T, strategy sched.Strategy, tasks int, rate float64) *Metrics {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Strategy = strategy
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 42, Config: cfg, Grid: DefaultGridSpec(), Workload: DefaultWorkload(tasks, rate), Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEndToEndSimulationCompletesAllTasks(t *testing.T) {
	m := runSmall(t, sched.ReconfigAware{}, 120, 0.5)
	if m.Completed != 120 || m.Unfinished != 0 {
		t.Fatalf("completed=%d unfinished=%d", m.Completed, m.Unfinished)
	}
	if m.Makespan <= 0 {
		t.Error("no makespan")
	}
	if m.Wait.N() != 120 || m.Turnaround.N() != 120 {
		t.Error("metrics incomplete")
	}
	if m.Reconfigs == 0 {
		t.Error("hardware workload caused no reconfigurations")
	}
	if m.Utilization(capability.KindGPP) <= 0 {
		t.Error("GPP utilization zero")
	}
	for _, k := range []capability.Kind{-1, capability.KindGPU + 1} {
		if u := m.Utilization(k); u != 0 {
			t.Errorf("Utilization(%v) = %v outside the kind enum", k, u)
		}
	}
	if m.String() == "" {
		t.Error("String")
	}
}

// TestMeanWaitIgnoresP95: P95Wait sorts the wait series in place, and
// MeanWait read after it must equal MeanWait read before it bit for bit.
func TestMeanWaitIgnoresP95(t *testing.T) {
	r := sim.NewRNG(7)
	for run := 0; run < 20; run++ {
		var m Metrics
		for i := 0; i < 1000; i++ {
			m.Wait.Observe(r.ExpFloat64() * 100)
		}
		before := m.MeanWait()
		m.P95Wait()
		if after := m.MeanWait(); math.Float64bits(after) != math.Float64bits(before) {
			t.Errorf("run %d: MeanWait %v after P95Wait, %v before", run, after, before)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	a := runSmall(t, sched.ReconfigAware{}, 60, 0.5)
	b := runSmall(t, sched.ReconfigAware{}, 60, 0.5)
	if a.Makespan != b.Makespan || a.MeanWait() != b.MeanWait() || a.Reconfigs != b.Reconfigs {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestConfigurationReuseHappens(t *testing.T) {
	// A workload drawing from few designs must hit resident configurations.
	cfg := DefaultConfig()
	cfg.Strategy = sched.ReuseFirst{}
	ws := DefaultWorkload(100, 0.3)
	ws.Designs = []string{"fir64"} // single design → heavy reuse
	ws.ShareUserHW = 0.6
	ws.ShareSoftcore = 0
	tc, _ := DefaultToolchain()
	m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 7, Config: cfg, Grid: DefaultGridSpec(), Workload: ws, Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reuses == 0 {
		t.Error("no configuration reuse despite a single-design workload")
	}
	if m.Reuses <= m.Reconfigs/10 {
		t.Errorf("reuse=%d vs reconfigs=%d: reuse-first should mostly reuse", m.Reuses, m.Reconfigs)
	}
}

func TestGPPOnlyStrategyStarvesHardwareTasks(t *testing.T) {
	m := runSmall(t, sched.GPPOnly{}, 60, 0.5)
	if m.Unfinished == 0 {
		t.Error("gpp-only should leave hardware tasks unschedulable")
	}
	if m.Completed == 0 {
		t.Error("software tasks should still complete")
	}
	if m.Completed+m.Unfinished != 60 {
		t.Errorf("accounting: %d+%d != 60", m.Completed, m.Unfinished)
	}
}

func TestReconfigAwareBeatsFirstFitOnWait(t *testing.T) {
	// The paper's central scheduling claim: accounting for reconfiguration
	// delays and bitstream transfer reduces waiting time versus naive
	// placement, with non-trivial RPE demand.
	ff := runSmall(t, sched.FirstFit{}, 150, 0.8)
	ra := runSmall(t, sched.ReconfigAware{}, 150, 0.8)
	if ra.Completed != 150 || ff.Completed != 150 {
		t.Fatalf("completion mismatch: ra=%d ff=%d", ra.Completed, ff.Completed)
	}
	if ra.MeanTurnaround() >= ff.MeanTurnaround() {
		t.Errorf("reconfig-aware turnaround %.2fs not better than first-fit %.2fs",
			ra.MeanTurnaround(), ff.MeanTurnaround())
	}
}

func TestProgramModeExecutesFig8Schedule(t *testing.T) {
	// Build the Eq. 4 program over 6 tasks and verify the batch structure
	// drives execution: T2 completes before the Par batch starts, etc.
	reg, err := BuildGrid(GridSpec{GPPNodes: 1, GPPsPerNode: 4, GPPCaps: capability.GPPCaps{
		CPUType: "x", MIPS: 10000, OS: "linux", RAMMB: 4096, Cores: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := rms.NewMatchmaker(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultConfig(), reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	g := task.NewGraph()
	for _, id := range []string{"T2", "T4", "T1", "T7", "T5", "T10"} {
		tk := &task.Task{
			ID:               id,
			Outputs:          []task.DataOut{{DataID: id + "-o", SizeMB: 1}},
			ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 1)},
			EstimatedSeconds: 10,
			Work:             pe.Work{MInstructions: 10000, ParallelFraction: 0},
		}
		if err := g.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := task.ParseApp(task.Eq4Source)
	if err != nil {
		t.Fatal(err)
	}
	eng.Submit(0, "alice", g, prog, jss.QoS{Monitor: true})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 6 {
		t.Fatalf("completed = %d", m.Completed)
	}
	sub := eng.J.Submissions()[0]
	if sub.Status != jss.StatusDone {
		t.Fatalf("submission status = %v (%s)", sub.Status, sub.FailureReason)
	}
	// Reconstruct the dispatch order from monitoring events.
	var order []string
	dispatchAt := map[string]sim.Time{}
	completeAt := map[string]sim.Time{}
	for _, ev := range sub.Events {
		switch {
		case ev.What == "completed":
			completeAt[ev.TaskID] = ev.Time
		case len(ev.What) >= 10 && ev.What[:10] == "dispatched":
			order = append(order, ev.TaskID)
			dispatchAt[ev.TaskID] = ev.Time
		}
	}
	if order[0] != "T2" {
		t.Errorf("first dispatch = %s, want T2", order[0])
	}
	// Par batch tasks all dispatch after T2 completes and at one instant.
	for _, id := range []string{"T4", "T1", "T7"} {
		if dispatchAt[id] < completeAt["T2"] {
			t.Errorf("%s dispatched before T2 completed", id)
		}
	}
	if dispatchAt["T4"] != dispatchAt["T1"] || dispatchAt["T1"] != dispatchAt["T7"] {
		t.Error("Par batch not dispatched concurrently")
	}
	// Seq tail: T5 before T10, and T10 after T5 completes.
	if dispatchAt["T10"] < completeAt["T5"] {
		t.Error("T10 dispatched before T5 completed (Seq violated)")
	}
	parEnd := completeAt["T4"]
	for _, id := range []string{"T1", "T7"} {
		if completeAt[id] > parEnd {
			parEnd = completeAt[id]
		}
	}
	if dispatchAt["T5"] < parEnd {
		t.Error("T5 dispatched before the Par batch drained")
	}
}

func TestGraphModeRespectsDependencies(t *testing.T) {
	reg, _ := BuildGrid(GridSpec{GPPNodes: 2, GPPsPerNode: 4, GPPCaps: capability.GPPCaps{
		CPUType: "x", MIPS: 10000, OS: "linux", RAMMB: 4096, Cores: 4}})
	mm, _ := rms.NewMatchmaker(reg, nil)
	eng, _ := NewEngine(DefaultConfig(), reg, mm)
	g := task.Fig7Graph()
	eng.Submit(0, "alice", g, nil, jss.QoS{Monitor: true})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 18 {
		t.Fatalf("completed = %d, want all 18 Fig. 7 tasks", m.Completed)
	}
	sub := eng.J.Submissions()[0]
	completeAt := map[string]sim.Time{}
	dispatchAt := map[string]sim.Time{}
	for _, ev := range sub.Events {
		if ev.What == "completed" {
			completeAt[ev.TaskID] = ev.Time
		} else if len(ev.What) >= 10 && ev.What[:10] == "dispatched" {
			dispatchAt[ev.TaskID] = ev.Time
		}
	}
	for _, id := range g.IDs() {
		for _, dep := range g.Dependencies(id) {
			if dispatchAt[id] < completeAt[dep] {
				t.Errorf("%s dispatched before dependency %s completed", id, dep)
			}
		}
	}
}

func TestToSoftwareOnly(t *testing.T) {
	gen, _ := Generate(sim.NewRNG(3), DefaultWorkload(30, 1))
	sw := ToSoftwareOnly(gen)
	for i, g := range sw {
		if g.ExecReq.Scenario != pe.SoftwareOnly {
			t.Fatalf("task %d not software-only", i)
		}
		if g.Work.MInstructions != gen[i].Work.MInstructions {
			t.Fatal("work changed")
		}
		if g.Arrival != gen[i].Arrival {
			t.Fatal("arrival changed")
		}
	}
	// Originals untouched.
	if gen[0].ExecReq.Scenario == pe.SoftwareOnly && gen[5].ExecReq.Scenario == pe.SoftwareOnly &&
		gen[10].ExecReq.Scenario == pe.SoftwareOnly && gen[15].ExecReq.Scenario == pe.SoftwareOnly {
		t.Skip("unlikely: sampled tasks all software already")
	}
}

func TestHybridBeatsGPPOnlyGridForAcceleratorWorkload(t *testing.T) {
	// X2: same accelerator-friendly workload on (a) a hybrid grid and
	// (b) the same tasks stripped to software on a GPP-only grid with the
	// same GPP resources. The hybrid grid must finish sooner.
	ws := DefaultWorkload(80, 0.4)
	ws.ShareUserHW = 0.6
	ws.ShareSoftcore = 0
	gen, err := Generate(sim.NewRNG(11), ws)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := DefaultToolchain()

	hybridReg, _ := BuildGrid(DefaultGridSpec())
	mmH, _ := rms.NewMatchmaker(hybridReg, tc)
	engH, _ := NewEngine(DefaultConfig(), hybridReg, mmH)
	engH.SubmitWorkload(gen)
	mh, err := engH.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	gppSpec := DefaultGridSpec()
	gppSpec.HybridNodes = 0
	gppSpec.GPPNodes = 4 // same number of nodes, GPPs only
	gppReg, _ := BuildGrid(gppSpec)
	mmG, _ := rms.NewMatchmaker(gppReg, nil)
	engG, _ := NewEngine(DefaultConfig(), gppReg, mmG)
	engG.SubmitWorkload(ToSoftwareOnly(gen))
	mg, err := engG.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if mh.Completed != 80 || mg.Completed != 80 {
		t.Fatalf("completion: hybrid=%d gpp=%d", mh.Completed, mg.Completed)
	}
	if mh.MeanTurnaround() >= mg.MeanTurnaround() {
		t.Errorf("hybrid turnaround %.2fs not better than GPP-only %.2fs",
			mh.MeanTurnaround(), mg.MeanTurnaround())
	}
}

func TestSJFReducesMeanWaitVsFCFS(t *testing.T) {
	cfgF := DefaultConfig()
	cfgF.Queue = sched.FCFS
	cfgS := DefaultConfig()
	cfgS.Queue = sched.SJF
	tc, _ := DefaultToolchain()
	ws := DefaultWorkload(150, 1.2) // saturating arrival rate
	mf, err := RunScenario(context.Background(), ScenarioSpec{Seed: 5, Config: cfgF, Grid: DefaultGridSpec(), Workload: ws, Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunScenario(context.Background(), ScenarioSpec{Seed: 5, Config: cfgS, Grid: DefaultGridSpec(), Workload: ws, Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	if ms.MeanWait() > mf.MeanWait()*1.05 {
		t.Errorf("SJF mean wait %.2fs should not exceed FCFS %.2fs", ms.MeanWait(), mf.MeanWait())
	}
}

func TestHorizonBoundsRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 1 // far too short for the workload
	tc, _ := DefaultToolchain()
	m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 2, Config: cfg, Grid: DefaultGridSpec(), Workload: DefaultWorkload(50, 10), Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed+m.Unfinished > 50 {
		t.Errorf("accounting overflow: %d + %d", m.Completed, m.Unfinished)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}, nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewEngine(DefaultConfig(), nil, nil); err == nil {
		t.Error("nil registry accepted")
	}
}

func TestDeadlineOutcomeUnderLoad(t *testing.T) {
	// A generous deadline is met; an impossible one is recorded as missed.
	reg, _ := BuildGrid(GridSpec{GPPNodes: 1, GPPsPerNode: 1, GPPCaps: capability.GPPCaps{
		CPUType: "x", MIPS: 1000, RAMMB: 1024, Cores: 1}})
	mm, _ := rms.NewMatchmaker(reg, nil)
	eng, _ := NewEngine(DefaultConfig(), reg, mm)
	mkGraph := func(id string) *task.Graph {
		g := task.NewGraph()
		g.Add(&task.Task{
			ID:               id,
			Outputs:          []task.DataOut{{DataID: "o", SizeMB: 1}},
			ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(100, 1)},
			EstimatedSeconds: 60,
			Work:             pe.Work{MInstructions: 60000, ParallelFraction: 0}, // 60 s on this GPP
		})
		return g
	}
	eng.Submit(0, "generous", mkGraph("Ta"), nil, jss.QoS{DeadlineSeconds: 1000})
	eng.Submit(1, "impossible", mkGraph("Tb"), nil, jss.QoS{DeadlineSeconds: 10})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	subs := eng.J.Submissions()
	if len(subs) != 2 {
		t.Fatalf("submissions = %d", len(subs))
	}
	for _, s := range subs {
		resp, err := eng.J.Query(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch s.User {
		case "generous":
			if !resp.DeadlineMet {
				t.Error("generous deadline missed")
			}
		case "impossible":
			// Tb waits ~60 s behind Ta on the single core: the 10 s
			// deadline cannot hold.
			if resp.DeadlineMet {
				t.Error("impossible deadline reported met")
			}
		}
	}
}

func TestEngineRecordsRejectedSubmissions(t *testing.T) {
	reg, _ := BuildGrid(GridSpec{GPPNodes: 1, GPPsPerNode: 1, GPPCaps: capability.GPPCaps{
		CPUType: "x", MIPS: 1000, RAMMB: 512, Cores: 1}})
	mm, _ := rms.NewMatchmaker(reg, nil)
	eng, _ := NewEngine(DefaultConfig(), reg, mm)
	// An over-budget submission is rejected by the JSS at its arrival
	// event; the engine must not crash and the record must carry a reason.
	g := task.NewGraph()
	g.Add(&task.Task{
		ID:               "pricey",
		Outputs:          []task.DataOut{{DataID: "o", SizeMB: 1}},
		ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(100, 1)},
		EstimatedSeconds: 1000,
		Work:             pe.Work{MInstructions: 1e6, ParallelFraction: 0},
	})
	eng.Submit(0, "cheapskate", g, nil, jss.QoS{MaxCostUnits: 1})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 0 {
		t.Error("rejected work ran")
	}
	subs := eng.J.Submissions()
	if len(subs) != 1 || subs[0].Status != jss.StatusRejected || subs[0].FailureReason == "" {
		t.Errorf("rejection not recorded: %+v", subs)
	}
}

func TestGridSpecOverrides(t *testing.T) {
	gs := DefaultGridSpec()
	gs.ReconfigMBpsOverride = 9
	gs.DisablePartialReconfig = true
	reg, err := BuildGrid(gs)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := reg.Node("Node2")
	for _, e := range n.RPEs() {
		dev := e.Fabric.Device()
		if dev.ReconfigMBps != 9 {
			t.Errorf("bandwidth override lost: %v", dev.ReconfigMBps)
		}
		if dev.PartialRecon {
			t.Error("partial reconfiguration not disabled")
		}
	}
}
