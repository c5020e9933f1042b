package grid

import (
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/task"
)

// dispatchRig builds an engine over one node with a one-core GPP and an
// XC5VLX110T RPE. A software task runs on the GPP while its core is
// free and falls back to a soft-core on the RPE otherwise.
func dispatchRig(t *testing.T, tracer obs.TraceSink) (*Engine, *node.Element, *node.Element) {
	t.Helper()
	n, err := node.New("n0")
	if err != nil {
		t.Fatal(err)
	}
	gpp, err := n.AddGPP(capability.GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	rpe, err := n.AddRPE("XC5VLX110T")
	if err != nil {
		t.Fatal(err)
	}
	reg := rms.NewRegistry()
	if err := reg.AddNode(n); err != nil {
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
	cfg := DefaultConfig()
	cfg.Tracer = tracer
	e, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	return e, gpp, rpe
}

// admitOne queues one task as a workload arrival at the current virtual
// time, which dispatches it if anything fits. The trace record it queues
// is its own allocation, where a run reads records from the caller's
// trace.
func admitOne(e *Engine, tk *task.Task) {
	g := workloadRecord(tk, e.S.Now())
	e.queueItem(&g, nil)
}

// TestDispatchRoundNothingFitsZeroAllocs pins a dispatch round over a
// queue where nothing fits as allocation-free. The engine runs such a
// round on every event that moves its epoch while tasks wait, so a
// per-candidate allocation here multiplies by queue length × events: the
// GPP's only core is busy, so each waiting task is offered a soft-core
// on the RPE, whose fabric is taken by a busy region, and every
// placement fails. Each round moves the epoch first, as a release
// would, so it attempts both tasks instead of skipping their stamps.
func TestDispatchRoundNothingFitsZeroAllocs(t *testing.T) {
	e, gpp, rpe := dispatchRig(t, nil)
	if err := gpp.AcquireCore(); err != nil {
		t.Fatal(err)
	}
	f := rpe.Fabric
	r, _, err := f.ConfigurePartial(fabric.PartialBitstream("hog", "k", f.Device(), f.Device().FPGACaps.Slices))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Acquire(r); err != nil {
		t.Fatal(err)
	}
	admitOne(e, softwareTask("a", 500, 100))
	admitOne(e, softwareTask("b", 500, 100))
	if len(e.queue) != 2 {
		t.Fatalf("queue holds %d tasks, want both waiting", len(e.queue))
	}
	if cands, err := e.MM.Candidates(*e.queue[0].rec.ExecReq); err != nil || len(cands) == 0 {
		t.Fatalf("no soft-core fallback candidate (%v): the round would not reach placement", err)
	}
	round := func() {
		e.epoch++
		e.tryDispatch()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("a dispatch round that places nothing allocates %.2f times, want 0", avg)
	}
	if len(e.queue) != 2 {
		t.Errorf("queue holds %d tasks after the rounds, want 2", len(e.queue))
	}
}

// dispatchCompleteAllocs is everything one software task's arrival,
// dispatch and completion allocate on a warm engine: admitOne's own
// trace record. The engine's item, with its lease and completion handler,
// comes from the free list. A per-candidate or per-placement allocation
// on the dispatch path, a record, lease or closure per task, or a graph
// or submission per workload task, raises it.
const dispatchCompleteAllocs = 1

// TestDispatchCompletionAllocs pins the success path's allocations per
// task, untraced and with a sink that discards everything, at the
// count above.
func TestDispatchCompletionAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer obs.TraceSink
	}{
		{"untraced", nil},
		{"noop-tracer", obs.Noop{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, _ := dispatchRig(t, tc.tracer)
			tk := softwareTask("t", 500, 100)
			before := e.m.Completed
			avg := testing.AllocsPerRun(100, func() {
				admitOne(e, tk)
				if err := e.S.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if done := e.m.Completed - before; done != 101 {
				t.Fatalf("completed %d tasks, want 101 (one per run plus the warm-up)", done)
			}
			if avg > dispatchCompleteAllocs {
				t.Errorf("one task's dispatch and completion allocates %.2f times, want at most %d", avg, dispatchCompleteAllocs)
			}
		})
	}
}
