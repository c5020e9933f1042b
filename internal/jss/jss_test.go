package jss

import (
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
	got := j.Dequeue()
	if got != sub || got.Status != StatusRunning {
		t.Error("dequeue broken")
	}
	j.Notify(sub, 6, "T1", "dispatched")
	j.Charge(sub, 10, capability.KindGPP)
	j.TaskDone(sub, 20)
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
	j.Dequeue()
	j.TaskDone(sub, 50)
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

func TestPriorityDequeueOrder(t *testing.T) {
	j := New()
	low, _ := j.Submit("a", oneTaskGraph(t, "T1"), nil, QoS{Priority: 1}, 0)
	high, _ := j.Submit("b", oneTaskGraph(t, "T1"), nil, QoS{Priority: 9}, 0)
	mid, _ := j.Submit("c", oneTaskGraph(t, "T1"), nil, QoS{Priority: 5}, 0)
	if len(j.queue) != 3 {
		t.Fatalf("queue = %d", len(j.queue))
	}
	if got := j.Dequeue(); got != high {
		t.Errorf("first dequeue = %s", got.ID)
	}
	if got := j.Dequeue(); got != mid {
		t.Errorf("second dequeue = %s", got.ID)
	}
	if got := j.Dequeue(); got != low {
		t.Errorf("third dequeue = %s", got.ID)
	}
	if j.Dequeue() != nil {
		t.Error("empty dequeue should be nil")
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	j := New()
	first, _ := j.Submit("a", oneTaskGraph(t, "T1"), nil, QoS{}, 0)
	_, _ = j.Submit("b", oneTaskGraph(t, "T1"), nil, QoS{}, 0)
	if got := j.Dequeue(); got != first {
		t.Error("FIFO violated within equal priority")
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
	j.Dequeue()
	j.Fail(sub, 9, "node vanished")
	if sub.Status != StatusFailed || sub.FailureReason != "node vanished" {
		t.Errorf("fail: %+v", sub)
	}
	// TaskDone after failure is a no-op.
	j.TaskDone(sub, 10)
	if sub.Status != StatusFailed {
		t.Error("TaskDone resurrected a failed submission")
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
	g := task.NewGraph()
	for _, id := range []string{"Ta", "Tb"} {
		tk := &task.Task{
			ID:               id,
			Outputs:          []task.DataOut{{DataID: id + "-o", SizeMB: 1}},
			ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 1)},
			EstimatedSeconds: 1,
			Work:             pe.Work{MInstructions: 100, ParallelFraction: 0},
		}
		if err := g.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	sub, _ := j.Submit("a", g, nil, QoS{}, 0)
	j.Dequeue()
	j.TaskDone(sub, 1)
	if sub.Status != StatusRunning {
		t.Error("submission completed early")
	}
	j.TaskDone(sub, 2)
	if sub.Status != StatusDone {
		t.Error("submission not completed")
	}
}

func TestQueryResponseSnapshot(t *testing.T) {
	j := New()
	sub, _ := j.Submit("alice", oneTaskGraph(t, "T1"), nil, QoS{Monitor: true}, 2)
	j.Dequeue()
	j.Notify(sub, 3, "T1", "dispatched")

	resp, err := j.Query(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusRunning || resp.TasksTotal != 1 || resp.TasksDone != 0 {
		t.Errorf("mid-run response = %+v", resp)
	}
	j.TaskDone(sub, 9)
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
