package grid

import (
	"context"
	"testing"

	"repro/internal/jss"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// failureRig builds a 2-hybrid-node grid with one long-running hardware
// task dispatched at t=0.
func failureRig(t *testing.T) (*Engine, *task.Task) {
	t.Helper()
	reg, err := BuildGrid(DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := DefaultToolchain()
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultConfig(), reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	ws := DefaultWorkload(1, 1)
	ws.ShareUserHW = 1
	ws.ShareSoftcore = 0
	ws.WorkMI = sim.Constant{Value: 4e6} // ≈100 s on the accelerator
	gen, err := Generate(sim.NewRNG(2), ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitWorkload(gen, "fail"); err != nil {
		t.Fatal(err)
	}
	return eng, gen[0].Task
}

// findRunningElement locates where the single task landed (it lands on the
// first candidate the strategy chose; we detect it by busy state).
func busyRPE(t *testing.T, eng *Engine) (string, string) {
	t.Helper()
	for _, n := range eng.Reg.Nodes() {
		for _, el := range n.RPEs() {
			if el.Busy() {
				return n.ID, el.ID
			}
		}
	}
	t.Fatal("no busy RPE found")
	return "", ""
}

func TestTransientFailureRetriesTask(t *testing.T) {
	// Baseline: the same rig without failure.
	base, _ := failureRig(t)
	baseM, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if baseM.Completed != 1 {
		t.Fatalf("baseline completed = %d", baseM.Completed)
	}

	eng, _ := failureRig(t)
	// Let the dispatch happen, then fail the hosting element mid-run.
	if err := eng.S.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	nodeID, elemID := busyRPE(t, eng)
	eng.FailElementAt(10, nodeID, elemID, false)
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Failures != 1 {
		t.Errorf("failures = %d, want 1", m.Failures)
	}
	if m.Completed != 1 || m.Unfinished != 0 {
		t.Errorf("completed=%d unfinished=%d; the retried task must finish", m.Completed, m.Unfinished)
	}
	// The retry costs time: several seconds of work were thrown away at
	// the t=10 failure, so turnaround must exceed the failure-free run by
	// most of that.
	if m.MeanTurnaround() < baseM.MeanTurnaround()+5 {
		t.Errorf("turnaround %.1fs vs baseline %.1fs: wasted attempt not charged",
			m.MeanTurnaround(), baseM.MeanTurnaround())
	}
	// The failed element stays in the grid (transient).
	n, _ := eng.Reg.Node(nodeID)
	if _, ok := n.Element(elemID); !ok {
		t.Error("transient failure removed the element")
	}
}

func TestPermanentFailureRemovesElement(t *testing.T) {
	eng, _ := failureRig(t)
	if err := eng.S.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	nodeID, elemID := busyRPE(t, eng)
	eng.FailElementAt(10, nodeID, elemID, true)
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n, _ := eng.Reg.Node(nodeID)
	if _, ok := n.Element(elemID); ok {
		t.Error("permanent failure left the element installed")
	}
	// The task still completes on another device.
	if m.Completed != 1 {
		t.Errorf("completed = %d; task should migrate to a surviving RPE", m.Completed)
	}
}

func TestFailureOnIdleElementIsHarmless(t *testing.T) {
	reg, _ := BuildGrid(DefaultGridSpec())
	mm, _ := rms.NewMatchmaker(reg, nil)
	eng, _ := NewEngine(DefaultConfig(), reg, mm)
	eng.FailElementAt(1, "Node2", "RPE0", false)
	eng.FailElementAt(2, "NoSuchNode", "RPE0", false)
	eng.FailElementAt(3, "Node2", "NoSuchElem", false)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFailureEventVisibleToMonitoringUser(t *testing.T) {
	eng, tk := failureRig(t)
	_ = tk
	if err := eng.S.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	nodeID, elemID := busyRPE(t, eng)
	// Re-submit monitoring is off for workload submissions, so craft one.
	g := task.NewGraph()
	mon := &task.Task{
		ID:      "monitored",
		Outputs: []task.DataOut{{DataID: "o", SizeMB: 1}},
		ExecReq: task.ExecReq{
			Scenario:     pe.SoftwareOnly,
			Requirements: task.GPPOnly(1000, 64),
		},
		EstimatedSeconds: 100,
		Work:             pe.Work{MInstructions: 4e6, ParallelFraction: 0},
	}
	if err := g.Add(mon); err != nil {
		t.Fatal(err)
	}
	eng.Submit(6, "alice", g, nil, jss.QoS{Monitor: true})
	// Fail the GPP hosting the monitored task shortly after dispatch.
	if err := eng.S.RunUntil(7); err != nil {
		t.Fatal(err)
	}
	var gppNode, gppElem string
	for _, n := range eng.Reg.Nodes() {
		for _, el := range n.GPPs() {
			if el.Busy() {
				gppNode, gppElem = n.ID, el.ID
			}
		}
	}
	if gppNode == "" {
		t.Fatal("monitored task not running")
	}
	eng.FailElementAt(8, gppNode, gppElem, false)
	eng.FailElementAt(9, nodeID, elemID, false)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sawFailure bool
	for _, sub := range eng.J.Submissions() {
		for _, ev := range sub.Events {
			if len(ev.What) >= 6 && ev.What[:6] == "failed" {
				sawFailure = true
			}
		}
	}
	if !sawFailure {
		t.Error("monitoring user never saw the failure event")
	}
}

func TestFailureMetricsFieldZeroByDefault(t *testing.T) {
	m := runSmall(t, sched.ReconfigAware{}, 30, 0.5)
	if m.Failures != 0 {
		t.Errorf("failures = %d without injection", m.Failures)
	}
}
