package grid

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/capability"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/rms"
	"repro/internal/sim"
)

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// reuseRig builds an engine and a trace shaped like the repository
// benchmark's sim-reuse workload: short hardware tasks arriving at
// λ = 2/s over a 4 MB/s configuration port, so the queue stays short
// and nearly every task settles long before the last one arrives.
func reuseRig(t *testing.T, tasks int) (*Engine, []Generated) {
	t.Helper()
	ws := DefaultWorkload(tasks, 2)
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
	ws.ShareUserHW = 0.7
	ws.ShareSoftcore = 0
	gs := DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4
	reg, err := BuildGrid(gs)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultConfig(), reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(sim.NewRNG(11), ws)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the bitstream library now, so the per-task figures below do
	// not carry the one-off prewarm of SubmitWorkload.
	designs := map[string]*hdl.Design{}
	for _, g := range gen {
		addDesign(designs, g.ExecReq)
	}
	eng.prewarm(designs)
	return eng, gen
}

const (
	heapTasks = 20_000
	// traceCeiling bounds a generated trace, in bytes per task: one flat
	// record and its ID's share of the trace's one ID string.
	traceCeiling = 144
	// pendingCeiling bounds what SubmitWorkload keeps for a whole trace,
	// in bytes: a streamed trace is one cursor, not an event per arrival.
	pendingCeiling = 1024
	// settledCeiling bounds what a settled task leaves behind, in bytes
	// per task.
	settledCeiling = 32
)

// TestHeapPerTraceTask is the trace's memory ceiling: Generate keeps a
// task as one record in a slice, with no task tuple, input or output
// list or ID string of its own. The smallest of three measurements
// counts, as in TestHeapPerPendingArrival.
func TestHeapPerTraceTask(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	ws := DefaultWorkload(heapTasks, 2)
	perTask := math.Inf(1)
	for i := 0; i < 3; i++ {
		heap0 := liveHeap()
		gen, err := Generate(sim.NewRNG(11), ws)
		if err != nil {
			t.Fatal(err)
		}
		perTask = min(perTask, (liveHeap()-heap0)/heapTasks)
		runtime.KeepAlive(gen)
	}
	t.Logf("%.1f B per generated task", perTask)
	if perTask > traceCeiling {
		t.Errorf("a generated trace holds %.1f B per task, ceiling %d", perTask, traceCeiling)
	}
}

// TestGenerateAllocsFlat pins that Generate's allocations do not grow
// with the trace: a 10-task and a 10^4-task trace allocate the same
// number of times.
func TestGenerateAllocsFlat(t *testing.T) {
	allocs := func(tasks int) float64 {
		ws := DefaultWorkload(tasks, 2)
		return testing.AllocsPerRun(10, func() {
			if _, err := Generate(sim.NewRNG(11), ws); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(10_000)
	t.Logf("%.0f allocs for 10 tasks, %.0f for 10^4", small, large)
	if small != large {
		t.Errorf("Generate allocates %.0f times for 10 tasks and %.0f for 10^4; want equal", small, large)
	}
}

// TestHeapPerPendingArrival is the pre-run memory ceiling: SubmitWorkload
// streams the trace, so a pending arrival holds no event, closure, task
// graph or submission, and the whole trace costs a bounded cursor. A
// stray runtime allocation between the two collections can only add
// bytes, so the test keeps the smallest of five measurements, each on a
// fresh rig.
func TestHeapPerPendingArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	retained := math.Inf(1)
	for i := 0; i < 5; i++ {
		eng, gen := reuseRig(t, heapTasks)
		heap0 := liveHeap()
		if err := eng.SubmitWorkload(gen); err != nil {
			t.Fatal(err)
		}
		retained = min(retained, liveHeap()-heap0)
		runtime.KeepAlive(eng)
		runtime.KeepAlive(gen)
	}
	t.Logf("%.0f B for %d pending arrivals", retained, heapTasks)
	if retained > pendingCeiling {
		t.Errorf("%d pending arrivals hold %.0f B, ceiling %d", heapTasks, retained, pendingCeiling)
	}
}

// TestHeapPerSettledTask is the post-run memory ceiling: once a workload
// task completes, the engine keeps no item, execution or interned ID
// for it, and the event pool stays as small as the run's peak of queued
// events, not the trace's length.
func TestHeapPerSettledTask(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	eng, gen := reuseRig(t, heapTasks)
	heap0 := liveHeap()
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	perTask := (liveHeap() - heap0) / heapTasks
	runtime.KeepAlive(eng)
	runtime.KeepAlive(gen)
	if m.Completed != heapTasks {
		t.Fatalf("completed %d of %d tasks", m.Completed, heapTasks)
	}
	t.Logf("%.0f B per settled task", perTask)
	if perTask > settledCeiling {
		t.Errorf("settled tasks retain %.0f B each, ceiling %d", perTask, settledCeiling)
	}
}

// TestHeapPerEngine is the engine's own memory ceiling: over a prebuilt
// one-node registry and matchmaker, an untraced engine on the heap queue
// holds its simulator, JSS and metrics, one map (the JSS's submissions)
// and no trace cache: the running, outage and link-fault maps are made
// at their first write.
func TestHeapPerEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	const (
		engines       = 2_000
		engineCeiling = 1024 // bytes per engine
	)
	regs := make([]*rms.Registry, engines)
	mms := make([]*rms.Matchmaker, engines)
	for i := range regs {
		reg, err := BuildGrid(GridSpec{GPPNodes: 1, GPPsPerNode: 1, GPPCaps: capability.GPPCaps{
			CPUType: "x", MIPS: 1000, RAMMB: 1024, Cores: 1}})
		if err != nil {
			t.Fatal(err)
		}
		mm, err := rms.NewMatchmaker(reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		regs[i], mms[i] = reg, mm
	}
	cfg := DefaultConfig()
	cfg.Scheduler = func() sim.Scheduler { return sim.NewHeapQueue() }
	engs := make([]*Engine, engines)
	heap0 := liveHeap()
	for i := range engs {
		eng, err := NewEngine(cfg, regs[i], mms[i])
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = eng
	}
	perEngine := (liveHeap() - heap0) / engines
	runtime.KeepAlive(engs)
	runtime.KeepAlive(regs)
	runtime.KeepAlive(mms)
	t.Logf("%.0f B per engine", perEngine)
	if perEngine > engineCeiling {
		t.Errorf("engines cost %.0f B each, ceiling %d", perEngine, engineCeiling)
	}
}

// TestSubmitWorkloadAllocsFlat pins that SubmitWorkload's allocations do
// not grow with the trace: a 10-task and a 10^4-task trace allocate the
// same number of times.
func TestSubmitWorkloadAllocsFlat(t *testing.T) {
	allocs := func(tasks int) float64 {
		eng, gen := reuseRig(t, tasks)
		return testing.AllocsPerRun(10, func() {
			if err := eng.SubmitWorkload(gen); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(10_000)
	t.Logf("%.0f allocs for 10 tasks, %.0f for 10^4", small, large)
	if small != large {
		t.Errorf("SubmitWorkload allocates %.0f times for 10 tasks and %.0f for 10^4; want equal", small, large)
	}
}

// TestWorkloadTasksBypassJSS pins which tasks the JSS sees: no workload
// task, which the engine queues straight from its trace record, and
// every Submit submission, which stays queryable after it settles
// (Fig. 9's status service). Alice's submission arrives after the first
// workload tasks, yet it is the JSS's first.
func TestWorkloadTasksBypassJSS(t *testing.T) {
	eng, gen := reuseRig(t, 200)
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	if gen[0].Arrival >= 20 {
		t.Fatalf("first arrival at %v; the test needs workload tasks before alice's", gen[0].Arrival)
	}
	eng.Submit(20, "alice", singleTaskGraph(t, softwareTask("mine", 600, 100)), nil, jss.QoS{})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != len(gen)+1 {
		t.Fatalf("completed %d of %d tasks", m.Completed, len(gen)+1)
	}
	subs := eng.J.Submissions()
	if len(subs) != 1 || subs[0].User != "alice" || subs[0].ID != "sub-0001" {
		t.Fatalf("JSS holds %d submissions after the drain, want only alice's, as sub-0001", len(subs))
	}
	resp, err := eng.J.Query(subs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != jss.StatusDone || resp.TasksDone != 1 {
		t.Errorf("settled Submit submission answers %+v", resp)
	}
	if sub := eng.J.Dequeue(); sub != nil {
		t.Errorf("submission %s still queued after the drain", sub.ID)
	}
}
