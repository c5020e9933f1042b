package grid

import (
	"context"
	"runtime"
	"testing"

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
	if err := eng.prewarm(gen); err != nil {
		t.Fatal(err)
	}
	return eng, gen
}

const (
	heapTasks   = 20_000
	heapCeiling = 160 // bytes per pending arrival, and per settled task
)

// TestHeapPerPendingArrival is the pre-run memory ceiling: a scheduled
// arrival holds its event and a closure over its task, not a task graph
// or a submission built ahead of time.
func TestHeapPerPendingArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	eng, gen := reuseRig(t, heapTasks)
	heap0 := liveHeap()
	if err := eng.SubmitWorkload(gen, "mem"); err != nil {
		t.Fatal(err)
	}
	perArrival := (liveHeap() - heap0) / heapTasks
	runtime.KeepAlive(eng)
	runtime.KeepAlive(gen)
	t.Logf("%.0f B per pending arrival", perArrival)
	if perArrival > heapCeiling {
		t.Errorf("pending arrivals hold %.0f B each, ceiling %d", perArrival, heapCeiling)
	}
}

// TestHeapPerSettledTask is the post-run memory ceiling: once a workload
// task completes, the engine keeps no submission, graph or interned ID
// for it.
func TestHeapPerSettledTask(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	eng, gen := reuseRig(t, heapTasks)
	heap0 := liveHeap()
	if err := eng.SubmitWorkload(gen, "mem"); err != nil {
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
	if perTask > heapCeiling {
		t.Errorf("settled tasks retain %.0f B each, ceiling %d", perTask, heapCeiling)
	}
}

// TestSettledWorkloadSubmissionsLeaveJSS pins which submissions a drained
// engine keeps: none of SubmitWorkload's, which leave the JSS as they
// settle, and every Submit one, which stays queryable after it settles
// (Fig. 9's status service).
func TestSettledWorkloadSubmissionsLeaveJSS(t *testing.T) {
	eng, gen := reuseRig(t, 200)
	if err := eng.SubmitWorkload(gen, "mem"); err != nil {
		t.Fatal(err)
	}
	eng.Submit(1, "alice", singleTaskGraph(t, softwareTask("mine", 600, 100)), nil, jss.QoS{})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != len(gen)+1 {
		t.Fatalf("completed %d of %d tasks", m.Completed, len(gen)+1)
	}
	subs := eng.J.Submissions()
	if len(subs) != 1 || subs[0].User != "alice" {
		t.Fatalf("JSS keeps %d submissions after the drain, want only alice's", len(subs))
	}
	resp, err := eng.J.Query(subs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != jss.StatusDone || resp.TasksDone != 1 {
		t.Errorf("settled Submit submission answers %+v", resp)
	}
	if n := eng.J.QueueLength(); n != 0 {
		t.Errorf("%d submissions still queued after the drain", n)
	}
}
