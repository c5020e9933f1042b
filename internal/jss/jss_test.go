package jss

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/hdl"
	"repro/internal/pe"
	"repro/internal/task"
)

func oneTaskGraph(t *testing.T, id string) *task.Graph {
	t.Helper()
	g := task.NewGraph()
	tk := &task.Task{
		ID:               id,
		Outputs:          []task.DataOut{{DataID: "out", SizeMB: 1}},
		ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 256)},
		EstimatedSeconds: 10,
		Work:             pe.Work{MInstructions: 10000, ParallelFraction: 0.5},
	}
	if err := g.Add(tk); err != nil {
		t.Fatal(err)
	}
	return g
}

// testGraph builds a graph of one-second software tasks, added in the
// order given; deps names each task's producers, whose outputs it reads.
func testGraph(t *testing.T, deps map[string][]string, order ...string) *task.Graph {
	t.Helper()
	g := task.NewGraph()
	for _, id := range order {
		tk := &task.Task{
			ID:               id,
			Outputs:          []task.DataOut{{DataID: id + "-o", SizeMB: 1}},
			ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 1)},
			EstimatedSeconds: 1,
			Work:             pe.Work{MInstructions: 100},
		}
		for _, p := range deps[id] {
			tk.Inputs = append(tk.Inputs, task.DataIn{SourceTask: p, DataID: p + "-o", SizeMB: 1})
		}
		if err := g.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// noReady is a TaskDone callback for a task that unblocks nothing.
func noReady(t *testing.T) func(string) {
	return func(id string) {
		t.Helper()
		t.Errorf("task %s readied; want none", id)
	}
}

// collect is a TaskDone callback that appends each readied task to got.
func collect(got *[]string) func(string) {
	return func(id string) { *got = append(*got, id) }
}

// TestStartReadyOrder pins which tasks Start readies and in which order:
// the plan's first batch, in plan order, for a program (Fig. 8); every
// task without producers, in graph order, for a graph (Fig. 7).
func TestStartReadyOrder(t *testing.T) {
	deps := map[string][]string{"T2": {"T9"}, "T5": {"T1", "T9"}}
	order := []string{"T9", "T2", "T1", "T7", "T5"}
	j := New()
	prog, err := task.ParseApp("App{Par(T7,T1,T9), Seq(T5,T2)}")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := j.Submit("a", testGraph(t, deps, order...), prog, QoS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Start(sub); !slices.Equal(got, []string{"T7", "T1", "T9"}) || sub.Status != StatusRunning {
		t.Errorf("program: Start readies %v (%v), want [T7 T1 T9] running", got, sub.Status)
	}
	sub, err = j.Submit("a", testGraph(t, deps, order...), nil, QoS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Start(sub); !slices.Equal(got, []string{"T9", "T1", "T7"}) {
		t.Errorf("graph: Start readies %v, want [T9 T1 T7]", got)
	}
}

// TestTaskDoneReadiesSuccessors walks a program and a graph: each
// finished task readies, in insertion order, the successors that wait on
// nothing else, and the program's last task completes its submission,
// which then keeps no unblock rule.
func TestTaskDoneReadiesSuccessors(t *testing.T) {
	j := New()
	prog, err := task.ParseApp("App{Seq(A), Par(C,B,D), Seq(E)}")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := j.Submit("a", testGraph(t, nil, "A", "B", "C", "D", "E"), prog, QoS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Start(sub)
	var got []string
	j.TaskDone(sub, "A", 1, collect(&got))
	if !slices.Equal(got, []string{"C", "B", "D"}) {
		t.Errorf("after A: readied %v, want the Par batch [C B D] in plan order", got)
	}
	got = nil
	j.TaskDone(sub, "B", 2, collect(&got))
	j.TaskDone(sub, "D", 3, collect(&got))
	if len(got) != 0 {
		t.Errorf("E readied before its whole batch finished: %v", got)
	}
	j.TaskDone(sub, "C", 4, collect(&got))
	if !slices.Equal(got, []string{"E"}) {
		t.Errorf("after the batch: readied %v, want [E]", got)
	}
	j.TaskDone(sub, "E", 5, noReady(t))
	if sub.Status != StatusDone || sub.CompletedAt != 5 {
		t.Errorf("after the last task: status %v at %v, want done at 5", sub.Status, sub.CompletedAt)
	}
	if sub.waiting != nil || sub.next != nil {
		t.Error("a completed submission keeps its unblock rule")
	}

	// A graph: X feeds Z, W and Y (inserted in that order); Y also waits
	// for W.
	deps := map[string][]string{"Z": {"X"}, "W": {"X"}, "Y": {"X", "W"}}
	sub, err = j.Submit("a", testGraph(t, deps, "X", "Z", "W", "Y"), nil, QoS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ready := j.Start(sub); !slices.Equal(ready, []string{"X"}) {
		t.Fatalf("graph: Start readies %v, want [X]", ready)
	}
	got = nil
	j.TaskDone(sub, "X", 1, collect(&got))
	if !slices.Equal(got, []string{"Z", "W"}) {
		t.Errorf("after X: readied %v, want [Z W]", got)
	}
	got = nil
	j.TaskDone(sub, "W", 2, collect(&got))
	if !slices.Equal(got, []string{"Y"}) {
		t.Errorf("after W: readied %v, want [Y]", got)
	}
}

// TestTaskDoneReadiesAfterFail pins that a failed submission's finished
// tasks still ready their successors, so the rest of the application
// runs, while the failure stands and nothing more is counted.
func TestTaskDoneReadiesAfterFail(t *testing.T) {
	j := New()
	prog, err := task.ParseApp("App{Par(A,B), Seq(C)}")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := j.Submit("a", testGraph(t, nil, "A", "B", "C"), prog, QoS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Start(sub)
	j.Fail(sub, 1, "task A lost after 3 failed attempts")
	var got []string
	j.TaskDone(sub, "B", 2, collect(&got))
	if len(got) != 0 {
		t.Errorf("C readied while A is unfinished: %v", got)
	}
	j.TaskDone(sub, "A", 3, collect(&got))
	if !slices.Equal(got, []string{"C"}) {
		t.Errorf("after Fail: readied %v, want [C]", got)
	}
	if sub.Status != StatusFailed || sub.remaining != 3 {
		t.Errorf("status %v with %d tasks left, want failed with 3", sub.Status, sub.remaining)
	}
}

func TestSubmitAndComplete(t *testing.T) {
	j := New()
	g := oneTaskGraph(t, "T1")
	sub, err := j.Submit("alice", g, nil, QoS{Monitor: true, DeadlineSeconds: 100}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Status != StatusQueued || sub.SubmittedAt != 5 {
		t.Errorf("sub = %+v", sub)
	}
	if sub.QuotedCost != 10 { // 10 s × GPP rate 1.0
		t.Errorf("quote = %v", sub.QuotedCost)
	}
	if ready := j.Start(sub); !slices.Equal(ready, []string{"T1"}) || sub.Status != StatusRunning {
		t.Errorf("Start readies %v with status %v, want [T1] running", ready, sub.Status)
	}
	j.Notify(sub, 6, "T1", "dispatched")
	j.Charge(sub, 10, capability.KindGPP)
	j.TaskDone(sub, "T1", 20, noReady(t))
	if sub.Status != StatusDone || sub.CompletedAt != 20 {
		t.Errorf("completion: %+v", sub)
	}
	if !sub.DeadlineMet {
		t.Error("15s elapsed < 100s deadline should be met")
	}
	if sub.FinalCost != 10 {
		t.Errorf("final cost = %v", sub.FinalCost)
	}
	if len(sub.Events) != 1 || sub.Events[0].What != "dispatched" {
		t.Errorf("events = %+v", sub.Events)
	}
}

func TestDeadlineMiss(t *testing.T) {
	j := New()
	g := oneTaskGraph(t, "T1")
	sub, _ := j.Submit("alice", g, nil, QoS{DeadlineSeconds: 5}, 0)
	j.Start(sub)
	j.TaskDone(sub, "T1", 50, noReady(t))
	if sub.DeadlineMet {
		t.Error("50s elapsed > 5s deadline reported met")
	}
}

func TestRejections(t *testing.T) {
	j := New()
	if _, err := j.Submit("", oneTaskGraph(t, "T1"), nil, QoS{}, 0); err == nil {
		t.Error("anonymous submission accepted")
	}
	if _, err := j.Submit("alice", nil, nil, QoS{}, 0); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := j.Submit("alice", task.NewGraph(), nil, QoS{}, 0); err == nil {
		t.Error("empty graph accepted")
	}
	// Program referencing a missing task.
	prog, _ := task.ParseApp("App{Seq(T9)}")
	if _, err := j.Submit("alice", oneTaskGraph(t, "T1"), prog, QoS{}, 0); err == nil {
		t.Error("dangling program reference accepted")
	}
	// Program leaving a graph task out: B would never run, so the
	// submission would never settle.
	prog, _ = task.ParseApp("App{Seq(A)}")
	_, err := j.Submit("alice", testGraph(t, map[string][]string{"A": nil, "B": nil}, "A", "B"), prog, QoS{}, 0)
	if err == nil || !strings.Contains(err.Error(), "program leaves out task B") {
		t.Errorf("program leaving out task B: err = %v", err)
	}
	// Over-budget quote.
	if _, err := j.Submit("alice", oneTaskGraph(t, "T1"), nil, QoS{MaxCostUnits: 1}, 0); err == nil {
		t.Error("over-budget submission accepted")
	}
	// All rejections are recorded with reasons.
	for _, s := range j.Submissions() {
		if s.Status != StatusRejected || s.FailureReason == "" {
			t.Errorf("rejection not recorded: %+v", s)
		}
	}
}

func TestStreamingDesignRejected(t *testing.T) {
	j := New()
	g := task.NewGraph()
	d, _ := hdl.LookupIP("fir64")
	streaming := *d
	streaming.Streaming = true
	tk := &task.Task{
		ID:      "T1",
		Outputs: []task.DataOut{{DataID: "o", SizeMB: 1}},
		ExecReq: task.ExecReq{
			Scenario:     pe.UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-5", 1),
			Design:       &streaming,
		},
		EstimatedSeconds: 1,
		Work:             pe.Work{MInstructions: 100, ParallelFraction: 0.5},
	}
	if err := g.Add(tk); err != nil {
		t.Fatal(err)
	}
	_, err := j.Submit("alice", g, nil, QoS{}, 0)
	if err == nil || !strings.Contains(err.Error(), "streaming") {
		t.Errorf("streaming design not rejected: %v", err)
	}
}

func TestNotifyRequiresMonitorQoS(t *testing.T) {
	j := New()
	sub, _ := j.Submit("a", oneTaskGraph(t, "T1"), nil, QoS{}, 0)
	j.Notify(sub, 1, "T1", "x")
	if len(sub.Events) != 0 {
		t.Error("events recorded without Monitor QoS")
	}
}

func TestFail(t *testing.T) {
	j := New()
	sub, _ := j.Submit("a", oneTaskGraph(t, "T1"), nil, QoS{}, 0)
	j.Start(sub)
	j.Fail(sub, 9, "node vanished")
	if sub.Status != StatusFailed || sub.FailureReason != "node vanished" {
		t.Errorf("fail: %+v", sub)
	}
	// TaskDone after failure counts nothing.
	j.TaskDone(sub, "T1", 10, noReady(t))
	if sub.Status != StatusFailed || sub.remaining != 1 {
		t.Errorf("TaskDone after Fail: status %v, %d tasks left; want failed, 1", sub.Status, sub.remaining)
	}
}

func TestCostRates(t *testing.T) {
	if CostRate(capability.KindFPGA) <= CostRate(capability.KindGPP) {
		t.Error("FPGA time should cost more than GPP time")
	}
	if CostRate(capability.KindUnknown) != 1.0 {
		t.Error("unknown kind should default to base rate")
	}
}

func TestStatusString(t *testing.T) {
	if StatusDone.String() != "done" || Status(42).String() == "" {
		t.Error("Status String broken")
	}
}

func TestMultiTaskCompletionCounting(t *testing.T) {
	j := New()
	g := testGraph(t, nil, "Ta", "Tb")
	sub, _ := j.Submit("a", g, nil, QoS{}, 0)
	j.Start(sub)
	j.TaskDone(sub, "Ta", 1, noReady(t))
	if sub.Status != StatusRunning {
		t.Error("submission completed early")
	}
	j.TaskDone(sub, "Tb", 2, noReady(t))
	if sub.Status != StatusDone {
		t.Error("submission not completed")
	}
}

func TestQueryResponseSnapshot(t *testing.T) {
	j := New()
	sub, _ := j.Submit("alice", oneTaskGraph(t, "T1"), nil, QoS{Monitor: true}, 2)
	j.Start(sub)
	j.Notify(sub, 3, "T1", "dispatched")

	resp, err := j.Query(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusRunning || resp.TasksTotal != 1 || resp.TasksDone != 0 {
		t.Errorf("mid-run response = %+v", resp)
	}
	j.TaskDone(sub, "T1", 9, noReady(t))
	resp, _ = j.Query(sub.ID)
	if resp.Status != StatusDone || resp.TasksDone != 1 || resp.CompletedAt != 9 {
		t.Errorf("final response = %+v", resp)
	}
	if len(resp.Events) != 1 {
		t.Errorf("events = %d", len(resp.Events))
	}
	// The snapshot is detached from live state.
	resp.Events[0].What = "mutated"
	if sub.Events[0].What == "mutated" {
		t.Error("response aliases live events")
	}
	if _, err := j.Query("nope"); err == nil {
		t.Error("unknown submission accepted")
	}
}

// TestRejectErrorTable pins the rejection surface: every reject path
// returns a rejected submission record and an error that names the
// refusal under the jss: prefix.
func TestRejectErrorTable(t *testing.T) {
	cases := []struct {
		name     string
		submit   func(j *JSS) (*Submission, error)
		contains string
	}{
		{
			name: "no user",
			submit: func(j *JSS) (*Submission, error) {
				return j.Submit("", oneTaskGraph(t, "T1"), nil, QoS{}, 0)
			},
			contains: "without a user",
		},
		{
			name: "no tasks",
			submit: func(j *JSS) (*Submission, error) {
				return j.Submit("alice", nil, nil, QoS{}, 0)
			},
			contains: "without tasks",
		},
		{
			name: "cost cap exceeded",
			submit: func(j *JSS) (*Submission, error) {
				// The one-task graph quotes 10 units; cap it at 1.
				return j.Submit("alice", oneTaskGraph(t, "T1"), nil, QoS{MaxCostUnits: 1}, 0)
			},
			contains: "exceeds cost cap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub, err := tc.submit(New())
			if err == nil {
				t.Fatal("expected a rejection")
			}
			if sub.Status != StatusRejected {
				t.Errorf("status = %v, want rejected", sub.Status)
			}
			if !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("error %q does not mention %q", err, tc.contains)
			}
			if want := "jss: " + sub.FailureReason; err.Error() != want {
				t.Errorf("error %q, want %q", err, want)
			}
		})
	}
}

// TestRejectedSubmissionRecorded checks the rejected record stays
// queryable with the rejection reason.
func TestRejectedSubmissionRecorded(t *testing.T) {
	j := New()
	sub, err := j.Submit("alice", oneTaskGraph(t, "T1"), nil, QoS{MaxCostUnits: 1}, 0)
	if err == nil {
		t.Fatal("expected a rejection")
	}
	if sub.Status != StatusRejected {
		t.Errorf("status = %v, want rejected", sub.Status)
	}
	resp, err := j.Query(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusRejected || !strings.Contains(resp.FailureReason, "cost cap") {
		t.Errorf("query = %+v", resp)
	}
}
