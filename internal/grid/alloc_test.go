package grid

import (
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/task"
)

// dispatchRig builds an engine over one node with a one-core GPP and an
// XC5VLX110T RPE. A software task runs on the GPP while its core is
// free and falls back to a soft-core on the RPE otherwise.
func dispatchRig(t *testing.T, tracer TraceSink) (*Engine, *node.Element, *node.Element) {
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

// admitOne submits one task as a workload submission at the current
// virtual time, which dispatches it if anything fits.
func admitOne(t *testing.T, e *Engine, tk *task.Task) {
	e.admit("pin", singleTaskGraph(t, tk), nil, jss.QoS{}, true)
}

// TestDispatchRoundNothingFitsZeroAllocs pins a dispatch round over a
// queue where nothing fits as allocation-free. The engine runs such a
// round on every event while tasks wait, so a per-candidate allocation
// here multiplies by queue length × events: the GPP's only core is
// busy, so each waiting task is offered a soft-core on the RPE, whose
// fabric is taken by a busy region, and every placement fails.
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
	admitOne(t, e, softwareTask("a", 500, 100))
	admitOne(t, e, softwareTask("b", 500, 100))
	if len(e.queue) != 2 {
		t.Fatalf("queue holds %d tasks, want both waiting", len(e.queue))
	}
	if cands, err := e.MM.Candidates(e.queue[0].t.ExecReq); err != nil || len(cands) == 0 {
		t.Fatalf("no soft-core fallback candidate (%v): the round would not reach placement", err)
	}
	if avg := testing.AllocsPerRun(100, e.tryDispatch); avg != 0 {
		t.Errorf("a dispatch round that places nothing allocates %.2f times, want 0", avg)
	}
	if len(e.queue) != 2 {
		t.Errorf("queue holds %d tasks after the rounds, want 2", len(e.queue))
	}
}

// dispatchCompleteAllocs is everything one software task's admission,
// dispatch and completion allocate on a warm engine, its per-task
// records included. A per-candidate or per-placement allocation on the
// dispatch path raises it.
const dispatchCompleteAllocs = 11

// TestDispatchCompletionAllocs pins the success path's allocations per
// task, untraced and with a sink that discards everything, at the
// count above.
func TestDispatchCompletionAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer TraceSink
	}{
		{"untraced", nil},
		{"noop-tracer", obs.Noop{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, _ := dispatchRig(t, tc.tracer)
			tk := softwareTask("t", 500, 100)
			before := e.m.Completed
			avg := testing.AllocsPerRun(100, func() {
				admitOne(t, e, tk)
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
