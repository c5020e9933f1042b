package grid

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sim"
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

// workloadRecord is the trace record of a task that arrives at at; it
// shares the task's requirement.
func workloadRecord(tk *task.Task, at sim.Time) Generated {
	return Generated{Arrival: at, ID: tk.ID, ExecReq: &tk.ExecReq, EstimatedSeconds: tk.EstimatedSeconds, Work: tk.Work}
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

// advanceTo runs eng's simulator up to at: events due by then fire, later
// ones stay queued, and the clock stops on at.
func advanceTo(t *testing.T, eng *Engine, at sim.Time) {
	t.Helper()
	eng.S.Schedule(at, "advance", func() {})
	eng.S.Horizon = at
	if err := eng.S.Run(); err != nil {
		t.Fatal(err)
	}
}

// runningOn returns the node and element executing a task.
func runningOn(t *testing.T, eng *Engine, taskID string) (string, string) {
	t.Helper()
	for _, n := range eng.Reg.Nodes() {
		for _, el := range n.Elements() {
			for _, it := range eng.running[el] {
				if it.rec.ID == taskID {
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
	tl := obs.NewTimeline()
	cfg.Tracer = tl
	cfg.SampleEverySeconds = 10
	eng := gppRig(t, cfg, 2, 1000)
	eng.Submit(0, "inflight", singleTaskGraph(t, softwareTask("A", 1e6, 100)), nil, jss.QoS{})
	eng.Submit(1, "backoff", singleTaskGraph(t, softwareTask("B", 1e6, 100)), nil, jss.QoS{})
	eng.Submit(2, "queued", singleTaskGraph(t, softwareTask("C", 1000, 1e9)), nil, jss.QoS{})
	advanceTo(t, eng, 5)
	nodeID, _ := runningOn(t, eng, "B")
	eng.InjectFaults([]faults.Event{{Time: 10, Kind: faults.KindNodeCrash, Node: nodeID, Seq: 1}})
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
	samples := tl.Samples()
	last := samples[len(samples)-1]
	if last.Running != 1 || last.RetryBacklog != 1 || last.QueueDepth != 1 {
		t.Errorf("end-of-run sample: running %d, retry backlog %d, queued %d; want 1 each",
			last.Running, last.RetryBacklog, last.QueueDepth)
	}
}

// TestArrivalTiesKeepScheduleOrder pins how workload arrivals order
// against other events at the same virtual time: by when each was
// scheduled. The arrival of A ties with a submission scheduled before
// SubmitWorkload, so the submission runs first and its task S takes the
// only core ahead of A. The arrival of B ties with a node crash
// scheduled after SubmitWorkload, so B is dispatched first and the
// crash aborts it; the recovery expires its lease and B runs again.
func TestArrivalTiesKeepScheduleOrder(t *testing.T) {
	rec := &obs.Recorder{}
	cfg := DefaultConfig()
	cfg.Tracer = rec
	eng := gppRig(t, cfg, 1, 1000)
	eng.Submit(1, "early", singleTaskGraph(t, softwareTask("S", 1000, 100)), nil, jss.QoS{})
	gen := []Generated{
		workloadRecord(softwareTask("A", 1000, 100), 1),
		workloadRecord(softwareTask("B", 1000, 100), 5),
	}
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	eng.InjectFaults([]faults.Event{
		{Time: 5, Kind: faults.KindNodeCrash, Node: "Node0", Seq: 1},
		{Time: 6, Kind: faults.KindNodeRecover, Node: "Node0", Seq: 1},
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range rec.Events() {
		got = append(got, fmt.Sprintf("%.4g %s %s %s/%s", float64(ev.Time), ev.Kind, ev.TaskID, ev.Node, ev.Element))
	}
	want := []string{
		"1 queued S /",
		"1 dispatch S Node0/GPP0",
		"1 queued A /",
		"2.002 complete S Node0/GPP0",
		"2.002 dispatch A Node0/GPP0",
		"3.004 complete A Node0/GPP0",
		"5 queued B /",
		"5 dispatch B Node0/GPP0",
		"5 node-down  Node0/",
		"6 lease-expired B Node0/GPP0",
		"6 fail B Node0/GPP0",
		"6 node-up  Node0/",
		"6 retry B /",
		"6 dispatch B Node0/GPP0",
		"7.002 complete B Node0/GPP0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSubmitWorkloadRejectsStreamingDesign: the engine cannot run a
// streaming design, so a trace that names one is refused before the run,
// naming the task, instead of losing the task at its arrival.
func TestSubmitWorkloadRejectsStreamingDesign(t *testing.T) {
	gen, err := Generate(sim.NewRNG(5), DefaultWorkload(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	fir, err := hdl.LookupIP("fir64")
	if err != nil {
		t.Fatal(err)
	}
	streaming := *fir
	streaming.Streaming = true
	gen[3].ExecReq = &task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: task.FPGAFamily("Virtex-5", 1), Design: &streaming}
	eng := gppRig(t, DefaultConfig(), 1, 1000)
	err = eng.SubmitWorkload(gen)
	if err == nil || !strings.Contains(err.Error(), "task 3 ("+gen[3].ID+")") || !strings.Contains(err.Error(), "streaming") {
		t.Fatalf("SubmitWorkload = %v, want an error naming task 3 and its streaming design", err)
	}
	if n := eng.S.Pending(); n != 0 {
		t.Errorf("a rejected trace left %d arrivals pending", n)
	}
}

// TestSubmitWorkloadErrorsNameTheTask pins SubmitWorkload's errors on a
// bad record: each names the first bad record, also one that shares its
// requirement with an earlier record, with the text
// task.ValidateForGraph gives the whole task. A record with no
// requirement is refused as one with an empty requirement.
func TestSubmitWorkloadErrorsNameTheTask(t *testing.T) {
	noDesign := &task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: task.FPGAFamily("Virtex-5", 1)}
	for _, tc := range []struct {
		name string
		bad  func(gen []Generated)
		want string
	}{
		{"bad requirement", func(gen []Generated) { gen[4].ExecReq, gen[7].ExecReq = noDesign, noDesign },
			"task wl-00004: task: user-defined-hardware ExecReq carries no HDL design"},
		{"no requirement", func(gen []Generated) { gen[4].ExecReq = nil },
			"task wl-00004: capability: empty requirements"},
		{"negative estimate", func(gen []Generated) { gen[6].EstimatedSeconds = -1 },
			"task wl-00006: negative t_estimated"},
		{"bad work", func(gen []Generated) { gen[6].Work.ParallelFraction = 2 },
			"task wl-00006: pe: parallel fraction 2 outside [0,1]"},
		{"bad ID", func(gen []Generated) { gen[6].ID = "wl 6" },
			`task: ID "wl 6" contains ' '`},
	} {
		gen, err := Generate(sim.NewRNG(5), DefaultWorkload(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(gen[:6], func(g Generated) bool { return g.ExecReq == gen[6].ExecReq }) {
			t.Fatal("setup: task 6 shares its requirement with no earlier task")
		}
		tc.bad(gen)
		eng := gppRig(t, DefaultConfig(), 1, 1000)
		if err := eng.SubmitWorkload(gen); err == nil || err.Error() != tc.want {
			t.Errorf("%s: SubmitWorkload = %v, want %q", tc.name, err, tc.want)
		}
		if n := eng.S.Pending(); n != 0 {
			t.Errorf("%s: a rejected trace left %d arrivals pending", tc.name, n)
		}
	}
}

// TestSubmitWorkloadRejectsUnorderableArrivals: an arrival the simulator
// cannot order (NaN, ±Inf, or before the engine's clock) is an input
// error, not a panic, and a rejected trace schedules none of its tasks.
func TestSubmitWorkloadRejectsUnorderableArrivals(t *testing.T) {
	for name, at := range map[string]sim.Time{
		"nan":      sim.Time(math.NaN()),
		"+inf":     sim.TimeInf,
		"-inf":     sim.Time(math.Inf(-1)),
		"past":     4,
		"negative": -1,
	} {
		t.Run(name, func(t *testing.T) {
			eng := gppRig(t, DefaultConfig(), 1, 1000)
			advanceTo(t, eng, 5)
			gen := []Generated{
				workloadRecord(softwareTask("ok", 1000, 100), 6),
				workloadRecord(softwareTask("bad", 1000, 100), at),
			}
			err := eng.SubmitWorkload(gen)
			if err == nil || !strings.Contains(err.Error(), "task 1 (bad)") {
				t.Fatalf("SubmitWorkload = %v, want an error naming task 1", err)
			}
			if n := eng.S.Pending(); n != 0 {
				t.Errorf("a rejected trace left %d arrivals pending", n)
			}
		})
	}
}
