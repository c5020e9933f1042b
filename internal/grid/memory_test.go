package grid

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/rms"
	"repro/internal/sim"
)

// liveHeap collects garbage and returns the live heap in bytes. It
// collects twice: objects that only sync.Pool victim caches hold at the
// first collection are freed by the second, so the reading does not
// depend on what the pools held when it was taken.
func liveHeap() float64 {
	runtime.GC()
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
	// 72-byte record, which points at its variant's shared requirement,
	// and its ID's share of the trace's one ID string.
	traceCeiling = 88
	// pendingCeiling bounds what SubmitWorkload keeps for a whole trace,
	// in bytes: a streamed trace is one cursor, not an event per arrival.
	pendingCeiling = 1024
	// settledCeiling bounds what a settled task leaves behind, in bytes
	// per task.
	settledCeiling = 32
)

// TestHeapPerTraceTask is the trace's memory ceiling: Generate keeps a
// task as one record in a slice, with no requirement, task tuple, input
// or output list or ID string of its own. The smallest of three
// measurements counts, as in TestHeapPerPendingArrival.
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
// graph or submission, and the whole trace costs a bounded cursor.
// SubmitWorkload also reserves the metrics' Wait and Turnaround series
// for the trace's length; the test takes exactly that reservation, two
// float64 slices of the capacity slices.Grow gives, off the reading, and
// holds the rest to the ceiling. A stray runtime allocation between the
// two collections can only add bytes, so the test keeps the smallest of
// five measurements, each on a fresh rig.
func TestHeapPerPendingArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	reserved := 2 * 8 * float64(cap(slices.Grow([]float64(nil), heapTasks)))
	retained := math.Inf(1)
	for i := 0; i < 5; i++ {
		eng, gen := reuseRig(t, heapTasks)
		heap0 := liveHeap()
		if err := eng.SubmitWorkload(gen); err != nil {
			t.Fatal(err)
		}
		retained = min(retained, liveHeap()-heap0-reserved)
		runtime.KeepAlive(eng)
		runtime.KeepAlive(gen)
	}
	t.Logf("%.0f B for %d pending arrivals, beside the %.0f B series reservation", retained, heapTasks, reserved)
	if retained > pendingCeiling {
		t.Errorf("%d pending arrivals hold %.0f B beside the series reservation, ceiling %d", heapTasks, retained, pendingCeiling)
	}
}

// TestRunAllocsPerTask pins the garbage a warm workload run makes: a
// task's arrival, dispatch and completion take a record, with its lease
// and completion handler, from the engine's free list, the metrics'
// series were reserved for the whole trace, and a fabric region returns
// to its allocator's free list without a sort, so SubmitWorkload and Run
// together allocate under 0.045 times per task (0.039 measured), and
// under 24 B per task, 16 B of which is the reservation. What is left is
// the event queue's own growth and SubmitWorkload's fixed set-up.
func TestRunAllocsPerTask(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation run skipped in -short mode")
	}
	const (
		tasks         = 100_000
		allocsCeiling = 0.045
		bytesCeiling  = 24
	)
	eng, gen := reuseRig(t, tasks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if m.Completed != tasks {
		t.Fatalf("completed %d of %d tasks", m.Completed, tasks)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / tasks
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / tasks
	t.Logf("%.3f allocs and %.1f B per task", allocs, bytes)
	if allocs >= allocsCeiling || bytes >= bytesCeiling {
		t.Errorf("a warm run allocates %.3f times and %.1f B per task, want under %v and %d", allocs, bytes, allocsCeiling, bytesCeiling)
	}
}

// faultSweepRun sets up one replica of the hostile FaultSweep shape (150
// tasks at λ = 1/s under ReconfigAware, crashes at 0.05/s with 20 s
// outages, SEUs at 0.08/s, six retries) as RunScenario would, and returns
// the part RunScenario runs after set-up: streaming the fault timeline
// and the trace in, and running. The caller measures that part.
func faultSweepRun(t *testing.T, tc *hdl.Toolchain, seed uint64) func() *Metrics {
	t.Helper()
	f := faults.Default()
	f.CrashRate, f.MeanOutageSeconds, f.SEURate = 0.05, 20, 0.08
	f.Retry = faults.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 15}
	reg, err := BuildGrid(DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(sim.NewRNG(seed), DefaultWorkload(150, 1))
	if err != nil {
		t.Fatal(err)
	}
	f.HorizonSeconds = defaultFaultHorizon(gen)
	cfg := DefaultConfig()
	cfg.Faults = &f
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, n := range reg.Nodes() {
		ids = append(ids, n.ID)
	}
	cur, err := faults.NewCursor(sim.NewRNG(seed).Split(faults.ScheduleStream), f, ids)
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]*hdl.Design{}
	for _, g := range gen {
		addDesign(designs, g.ExecReq)
	}
	eng.prewarm(designs)
	return func() *Metrics {
		eng.InjectFaults(cur)
		if err := eng.SubmitWorkload(gen); err != nil {
			t.Fatal(err)
		}
		m, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// TestFaultRunAllocsPerTask pins the garbage of the fault path: over
// twelve replicas of the hostile FaultSweep shape, the fault timeline is
// generated as the run reaches it, a record's lease-renewal and retry
// handlers are built once and kept with it, and crash, recovery and SEU
// handling walk the node's elements and regions without copying them.
// It reads 2.44 allocations and 274 B per task (7.72 and 474 B with a
// built timeline, per-dispatch renewal closures and copied element
// lists; 2 vCPUs, amd64, Go 1.24.0), most of it the engine's first
// records and regions; the ceilings are the reading plus 5%.
func TestFaultRunAllocsPerTask(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation run skipped in -short mode")
	}
	const (
		allocsCeiling = 2.56
		bytesCeiling  = 288
	)
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	var mallocs, bytes, tasks, crashes, expiries, retries uint64
	for i := uint64(0); i < 12; i++ {
		run := faultSweepRun(t, tc, sim.NewRNG(2012).SplitSeed(i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := run()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		tasks += uint64(m.Submitted)
		crashes += uint64(m.NodeCrashes)
		expiries += uint64(m.LeaseExpiries)
		retries += uint64(m.Retries)
	}
	if crashes == 0 || expiries == 0 || retries == 0 {
		t.Fatalf("%d crashes, %d lease expiries and %d retries: the run does not reach the fault path", crashes, expiries, retries)
	}
	allocs, perTask := float64(mallocs)/float64(tasks), float64(bytes)/float64(tasks)
	t.Logf("%.2f allocs and %.0f B per task over %d tasks", allocs, perTask, tasks)
	if allocs > allocsCeiling || perTask > bytesCeiling {
		t.Errorf("a faulty run allocates %.2f times and %.0f B per task, want at most %v and %d", allocs, perTask, allocsCeiling, bytesCeiling)
	}
}

// TestItemSize pins the engine's task record, which holds its three
// handlers and nothing per fault, and the engine itself, whose fault
// state sits behind one pointer, to the 256-B size class.
func TestItemSize(t *testing.T) {
	if size := unsafe.Sizeof(item{}); size > 256 {
		t.Errorf("item is %d B, want at most 256", size)
	}
	if size := unsafe.Sizeof(Engine{}); size > 256 {
		t.Errorf("Engine is %d B, want at most 256", size)
	}
}

// TestHeapPerSettledTask is the post-run memory ceiling: once a workload
// task completes, the engine keeps no item, lease or interned ID for it
// (its record joins the free list, which holds the run's peak of queued
// and in-flight records, not one per task), and the event pool stays as
// small as the run's peak of queued events, not the trace's length.
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
// holds its simulator, JSS and metrics, no map and no trace cache: the
// JSS's submissions map and the running map are made at their first
// write, the outage and link-fault maps and the retry backoff list sit
// behind one pointer made at the first fault, and the JSS keeps no
// queue. The smallest of three measurements counts. Each engine
// allocates the same objects in any test order, but the reading can
// move with what ran before it in the process; it reads 896 B alone,
// after one other grid test and in the package run (2 vCPUs, amd64,
// Go 1.24.0). The ceiling leaves 32 B for that spread.
func TestHeapPerEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	const (
		engines       = 2_000
		engineCeiling = 928 // bytes per engine
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
	perEngine := math.Inf(1)
	for round := 0; round < 3; round++ {
		engs := make([]*Engine, engines)
		heap0 := liveHeap()
		for i := range engs {
			eng, err := NewEngine(cfg, regs[i], mms[i])
			if err != nil {
				t.Fatal(err)
			}
			engs[i] = eng
		}
		perEngine = min(perEngine, (liveHeap()-heap0)/engines)
		runtime.KeepAlive(engs)
	}
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
}
