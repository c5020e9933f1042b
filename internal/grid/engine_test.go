package grid

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/task"
)

// softwareTask is a single-core software task of mi million instructions
// that any GPP of at least minMIPS can run.
func softwareTask(id string, mi, minMIPS float64) *task.Task {
	return &task.Task{
		ID:               id,
		Outputs:          []task.DataOut{{DataID: "o", SizeMB: 1}},
		ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(minMIPS, 1)},
		EstimatedSeconds: mi / 1000,
		Work:             pe.Work{MInstructions: mi},
	}
}

// singleTaskGraph wraps one task in a graph for Engine.Submit.
func singleTaskGraph(t *testing.T, tk *task.Task) *task.Graph {
	t.Helper()
	g := task.NewGraph()
	if err := g.Add(tk); err != nil {
		t.Fatal(err)
	}
	return g
}

// gppRig is an engine over n single-GPP nodes of the given speed.
func gppRig(t *testing.T, cfg Config, nodes int, mips float64) *Engine {
	t.Helper()
	reg, err := BuildGrid(GridSpec{GPPNodes: nodes, GPPsPerNode: 1, GPPCaps: capability.GPPCaps{
		CPUType: "x", MIPS: mips, RAMMB: 1024, Cores: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := rms.NewMatchmaker(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// runningOn returns the node and element executing a task.
func runningOn(t *testing.T, eng *Engine, taskID string) (string, string) {
	t.Helper()
	for _, n := range eng.Reg.Nodes() {
		for _, el := range n.Elements() {
			for _, exe := range eng.running[el] {
				if exe.it.t.ID == taskID {
					return n.ID, el.ID
				}
			}
		}
	}
	t.Fatalf("task %s is not running", taskID)
	return "", ""
}

// TestFinishFailsEveryUnfinishedSubmission cuts a run at its horizon with
// one task in flight, one backing off before a retry and one queued: all
// three count as unfinished and all three submissions fail with a reason,
// not only the queued one.
func TestFinishFailsEveryUnfinishedSubmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 50
	cfg.Faults = &faults.Spec{Retry: faults.RetryPolicy{MaxRetries: 3, BackoffSeconds: 100}}
	cfg.Tracer = &Recorder{}
	cfg.SampleEverySeconds = 10
	eng := gppRig(t, cfg, 2, 1000)
	eng.Submit(0, "inflight", singleTaskGraph(t, softwareTask("A", 1e6, 100)), nil, jss.QoS{})
	eng.Submit(1, "backoff", singleTaskGraph(t, softwareTask("B", 1e6, 100)), nil, jss.QoS{})
	eng.Submit(2, "queued", singleTaskGraph(t, softwareTask("C", 1000, 1e9)), nil, jss.QoS{})
	if err := eng.S.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	nodeID, elemID := runningOn(t, eng, "B")
	eng.FailElementAt(10, nodeID, elemID, false)
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 3 || m.Completed != 0 || m.Unfinished != 3 {
		t.Fatalf("submitted %d, completed %d, unfinished %d; want 3, 0, 3", m.Submitted, m.Completed, m.Unfinished)
	}
	want := map[string]string{
		"inflight": "task A still running when the run ended",
		"backoff":  "task B backing off before a retry when the run ended",
		"queued":   "task C unschedulable under reconfig-aware",
	}
	for _, s := range eng.J.Submissions() {
		resp, err := eng.J.Query(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != jss.StatusFailed || resp.FailureReason != want[s.User] {
			t.Errorf("%s: %s %s %q, want failed %q", s.User, s.ID, resp.Status, resp.FailureReason, want[s.User])
		}
	}
	samples := cfg.Tracer.(*Recorder).Samples()
	last := samples[len(samples)-1]
	if last.Running != 1 || last.RetryBacklog != 1 || last.QueueDepth != 1 {
		t.Errorf("end-of-run sample: running %d, retry backlog %d, queued %d; want 1 each",
			last.Running, last.RetryBacklog, last.QueueDepth)
	}
}

// TestArrivalTiesKeepScheduleOrder pins how workload arrivals order
// against other events at the same virtual time: by when each was
// scheduled. The arrival of A ties with a node attach scheduled before
// SubmitWorkload, so the attach runs first and A lands on the faster new
// node. The arrival of B ties with an element failure scheduled after
// SubmitWorkload, so B is dispatched first and the failure aborts it.
// Streaming arrivals one at a time would schedule B's arrival after the
// failure and change this trace.
func TestArrivalTiesKeepScheduleOrder(t *testing.T) {
	rec := &Recorder{}
	cfg := DefaultConfig()
	cfg.Tracer = rec
	eng := gppRig(t, cfg, 1, 1000)
	slow := eng.Reg.Nodes()[0]
	fast, err := node.New("Fast")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fast.AddGPP(capability.GPPCaps{CPUType: "x", MIPS: 10000, RAMMB: 1024, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	eng.AttachNodeAt(1, fast)
	gen := []Generated{
		{Task: softwareTask("A", 100000, 100), Arrival: 1},
		{Task: softwareTask("B", 1000, 100), Arrival: 2},
	}
	if err := eng.SubmitWorkload(gen, "ties"); err != nil {
		t.Fatal(err)
	}
	eng.FailElementAt(2, slow.ID, slow.GPPs()[0].ID, false)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range rec.Events() {
		got = append(got, fmt.Sprintf("%.4g %s %s %s/%s", float64(ev.Time), ev.Kind, ev.TaskID, ev.Node, ev.Element))
	}
	want := []string{
		"1 queued A /",
		"1 dispatch A Fast/GPP0",
		"2 queued B /",
		"2 dispatch B Node0/GPP0",
		"2 fail B Node0/GPP0",
		"2 retry B /",
		"2 dispatch B Node0/GPP0",
		"3.002 complete B Node0/GPP0",
		"11 complete A Fast/GPP0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
