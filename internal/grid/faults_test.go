package grid

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// faultSlice is the slice adapter tests inject hand-written timelines
// through: it yields its events in (Time, index) order, so an unsorted
// timeline is accepted and faults tied on time keep their slice order.
type faultSlice []faults.Event

// Next yields the slice's next event.
func (s *faultSlice) Next() (faults.Event, bool) {
	if len(*s) == 0 {
		return faults.Event{}, false
	}
	ev := (*s)[0]
	*s = (*s)[1:]
	return ev, true
}

// injectFaults streams a hand-written timeline into eng through a
// faultSlice over a sorted copy of evs.
func injectFaults(eng *Engine, evs []faults.Event) {
	s := faultSlice(slices.Clone(evs))
	slices.SortStableFunc(s, func(a, b faults.Event) int { return cmp.Compare(a.Time, b.Time) })
	eng.InjectFaults(&s)
}

// faultTimeline reads the whole timeline of a cursor over the arguments.
func faultTimeline(t *testing.T, rng *sim.RNG, spec faults.Spec, nodeIDs []string) []faults.Event {
	t.Helper()
	cur, err := faults.NewCursor(rng, spec, nodeIDs)
	if err != nil {
		t.Fatal(err)
	}
	var evs []faults.Event
	for ev, ok := cur.Next(); ok; ev, ok = cur.Next() {
		evs = append(evs, ev)
	}
	return evs
}

// faultPolicy is the lease/retry policy used by crafted-event tests:
// tight TTL so detection is fast, modest retry budget.
func faultPolicy() *faults.Spec {
	return &faults.Spec{
		LeaseTTLSeconds: 2,
		Retry:           faults.RetryPolicy{MaxRetries: 5, BackoffSeconds: 1, BackoffCapSeconds: 8},
	}
}

// faultRig builds the failureRig grid with an active fault policy: one
// ≈100 s hardware task dispatched shortly after t=0.
func faultRig(t *testing.T, spec *faults.Spec, rec *obs.Recorder) *Engine {
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
	cfg := DefaultConfig()
	cfg.Faults = spec
	cfg.Tracer = rec
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	ws := DefaultWorkload(1, 1)
	ws.ShareUserHW = 1
	ws.ShareSoftcore = 0
	ws.WorkMI = sim.Constant{Value: 4e6}
	gen, err := Generate(sim.NewRNG(2), ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	eng := faultRig(t, faultPolicy(), nil)
	advanceTo(t, eng, 5)
	nodeID, _ := busyRPE(t, eng)
	injectFaults(eng, []faults.Event{
		{Time: 10, Kind: faults.KindNodeCrash, Node: nodeID, Seq: 1},
		{Time: 40, Kind: faults.KindNodeRecover, Node: nodeID, Seq: 1},
	})
	// Mid-outage the crashed node must be gone from the registry: its
	// lease expires within one TTL of the crash and nothing else holds
	// capacity on it.
	eng.S.Schedule(20, "probe", func() {
		if _, ok := eng.Reg.Node(nodeID); ok {
			t.Errorf("crashed node %s still registered at t=20", nodeID)
		}
	})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.NodeCrashes != 1 || m.NodeRecoveries != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1/1", m.NodeCrashes, m.NodeRecoveries)
	}
	if m.LeaseExpiries != 1 || m.Failures() != 1 || m.Retries != 1 {
		t.Errorf("expiries=%d failures=%d retries=%d, want 1/1/1", m.LeaseExpiries, m.Failures(), m.Retries)
	}
	if m.Completed != 1 || m.Unfinished != 0 || m.TasksLost != 0 {
		t.Errorf("completed=%d unfinished=%d lost=%d; retried task must finish elsewhere",
			m.Completed, m.Unfinished, m.TasksLost)
	}
	if m.MTTR.N() != 1 || m.MeanMTTR() <= 0 {
		t.Errorf("MTTR series n=%d mean=%g; one repaired task expected", m.MTTR.N(), m.MeanMTTR())
	}
	if m.DownSeconds < 29 || m.DownSeconds > 31 {
		t.Errorf("down seconds = %g, want ≈30", m.DownSeconds)
	}
	if a := m.Availability(); a >= 1 || a <= 0 {
		t.Errorf("availability = %g, want in (0,1)", a)
	}
	// The node rejoined the grid.
	if eng.Reg.Len() != 4 {
		t.Errorf("registry has %d nodes after recovery, want 4", eng.Reg.Len())
	}
	if _, ok := eng.Reg.Node(nodeID); !ok {
		t.Errorf("recovered node %s missing from registry", nodeID)
	}
}

func TestCrashOfIdleNodeAndSeqPairing(t *testing.T) {
	reg, _ := BuildGrid(DefaultGridSpec())
	mm, _ := rms.NewMatchmaker(reg, nil)
	cfg := DefaultConfig()
	cfg.Faults = faultPolicy()
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	injectFaults(eng, []faults.Event{
		{Time: 5, Kind: faults.KindNodeCrash, Node: "Node1", Seq: 1},
		// A second crash of a down node is a no-op, and its paired
		// recovery must not resurrect the node early.
		{Time: 6, Kind: faults.KindNodeCrash, Node: "Node1", Seq: 2},
		{Time: 7, Kind: faults.KindNodeRecover, Node: "Node1", Seq: 2},
		{Time: 9, Kind: faults.KindNodeRecover, Node: "Node1", Seq: 1},
		// Crashing an unknown node is harmless.
		{Time: 10, Kind: faults.KindNodeCrash, Node: "NoSuchNode", Seq: 3},
		{Time: 11, Kind: faults.KindNodeRecover, Node: "NoSuchNode", Seq: 3},
	})
	eng.S.Schedule(8, "probe", func() {
		if _, ok := eng.Reg.Node("Node1"); ok {
			t.Error("mismatched recovery seq resurrected Node1 at t=8")
		}
	})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.NodeCrashes != 1 || m.NodeRecoveries != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1/1", m.NodeCrashes, m.NodeRecoveries)
	}
	if m.DownSeconds != 4 {
		t.Errorf("down seconds = %g, want 4 (t=5→9)", m.DownSeconds)
	}
	if eng.Reg.Len() != 4 {
		t.Errorf("registry has %d nodes, want 4", eng.Reg.Len())
	}
}

// seuSelector brute-forces Selector bits that make applySEU hit a
// specific element and region.
func seuSelector(t *testing.T, eng *Engine, nodeID string) (uint64, string) {
	t.Helper()
	n, ok := eng.Reg.Node(nodeID)
	if !ok {
		t.Fatalf("node %s not registered", nodeID)
	}
	rpes := n.RPEs()
	for _, el := range rpes {
		for _, r := range el.Fabric.Regions() {
			if !r.Busy {
				continue
			}
			for s := uint64(0); s < 1<<22; s++ {
				if rpes[int(s%uint64(len(rpes)))] == el &&
					el.Fabric.Regions()[int((s>>16)%uint64(len(el.Fabric.Regions())))] == r {
					return s, el.ID
				}
			}
		}
	}
	t.Fatal("no busy region to target")
	return 0, ""
}

func TestSEUAbortsTaskAndForcesReconfiguration(t *testing.T) {
	eng := faultRig(t, faultPolicy(), nil)
	advanceTo(t, eng, 5)
	nodeID, _ := busyRPE(t, eng)
	sel, _ := seuSelector(t, eng, nodeID)
	injectFaults(eng, []faults.Event{
		{Time: 10, Kind: faults.KindSEU, Node: nodeID, Seq: 1, Selector: sel},
	})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.SEUFaults != 1 || m.Failures() != 1 || m.Retries != 1 {
		t.Errorf("seu=%d failures=%d retries=%d, want 1/1/1", m.SEUFaults, m.Failures(), m.Retries)
	}
	if m.Completed != 1 || m.Unfinished != 0 {
		t.Errorf("completed=%d unfinished=%d; task must survive the upset", m.Completed, m.Unfinished)
	}
	// The corrupted configuration was evicted, so the retry paid a
	// second configuration load.
	if m.Reconfigs < 2 {
		t.Errorf("reconfigs = %d, want ≥2 (corrupted region cannot be reused)", m.Reconfigs)
	}
	if m.LeaseExpiries != 0 {
		t.Errorf("lease expiries = %d; SEU aborts locally, no expiry", m.LeaseExpiries)
	}
}

func TestPartitionExpiresLeaseAndReroutes(t *testing.T) {
	rec := &obs.Recorder{}
	eng := faultRig(t, faultPolicy(), rec)
	advanceTo(t, eng, 5)
	nodeID, _ := busyRPE(t, eng)
	injectFaults(eng, []faults.Event{
		{Time: 8, Kind: faults.KindLinkDegrade, Node: nodeID, Seq: 1, Factor: 1, Partition: true},
		{Time: 60, Kind: faults.KindLinkRestore, Node: nodeID, Seq: 1, Partition: true},
	})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.LinkFaults != 1 || m.LeaseExpiries != 1 {
		t.Errorf("linkFaults=%d expiries=%d, want 1/1", m.LinkFaults, m.LeaseExpiries)
	}
	if m.Completed != 1 || m.Unfinished != 0 {
		t.Errorf("completed=%d unfinished=%d", m.Completed, m.Unfinished)
	}
	// The node itself never crashed: it stays registered throughout.
	if m.NodeCrashes != 0 || eng.Reg.Len() != 4 {
		t.Errorf("crashes=%d nodes=%d; partition must not remove the node", m.NodeCrashes, eng.Reg.Len())
	}
	// Degraded-mode scheduling: nothing dispatches to the partitioned
	// node while it is cut off.
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindDispatch && ev.Node.String() == nodeID && ev.Time >= 8 && ev.Time < 60 {
			t.Errorf("task %s dispatched to partitioned node %s at t=%v", ev.TaskID, nodeID, ev.Time)
		}
	}
}

func TestLinkDegradationSlowsTransfers(t *testing.T) {
	base := faultRig(t, faultPolicy(), nil)
	baseM, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng := faultRig(t, faultPolicy(), nil)
	var evs []faults.Event
	for i, id := range []string{"Node0", "Node1", "Node2", "Node3"} {
		evs = append(evs,
			faults.Event{Time: 0, Kind: faults.KindLinkDegrade, Node: id, Seq: uint64(i + 1), Factor: 200},
			faults.Event{Time: 1000, Kind: faults.KindLinkRestore, Node: id, Seq: uint64(i + 1)})
	}
	injectFaults(eng, evs)
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.LinkFaults != 4 || m.Completed != 1 {
		t.Fatalf("linkFaults=%d completed=%d", m.LinkFaults, m.Completed)
	}
	if m.MeanTurnaround() <= baseM.MeanTurnaround() {
		t.Errorf("degraded turnaround %.3fs not above baseline %.3fs",
			m.MeanTurnaround(), baseM.MeanTurnaround())
	}
}

func TestRetryBudgetExhaustedLosesTask(t *testing.T) {
	gs := DefaultGridSpec()
	gs.GPPNodes = 0
	gs.HybridNodes = 1
	gs.RPEDevices = []string{"XC5VLX155T"}
	reg, err := BuildGrid(gs)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := DefaultToolchain()
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = &faults.Spec{
		LeaseTTLSeconds: 2,
		Retry:           faults.RetryPolicy{MaxRetries: 1, BackoffSeconds: 1},
	}
	rec := &obs.Recorder{}
	cfg.Tracer = rec
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	ws := DefaultWorkload(1, 1)
	ws.ShareUserHW = 1
	ws.ShareSoftcore = 0
	ws.WorkMI = sim.Constant{Value: 4e6}
	gen, err := Generate(sim.NewRNG(2), ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	// Two crashes, each aborting one attempt of the only task on the
	// only node: the second abort exceeds MaxRetries=1.
	injectFaults(eng, []faults.Event{
		{Time: 10, Kind: faults.KindNodeCrash, Node: "Node0", Seq: 1},
		{Time: 20, Kind: faults.KindNodeRecover, Node: "Node0", Seq: 1},
		{Time: 30, Kind: faults.KindNodeCrash, Node: "Node0", Seq: 2},
		{Time: 40, Kind: faults.KindNodeRecover, Node: "Node0", Seq: 2},
	})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.TasksLost != 1 || m.Completed != 0 || m.Unfinished != 0 {
		t.Errorf("lost=%d completed=%d unfinished=%d, want 1/0/0", m.TasksLost, m.Completed, m.Unfinished)
	}
	if m.Retries != 1 || m.Failures() != 2 {
		t.Errorf("retries=%d failures=%d, want 1/2", m.Retries, m.Failures())
	}
	var sawLost bool
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindLost {
			sawLost = true
		}
	}
	if !sawLost {
		t.Error("no lost event in the trace")
	}
	// Task conservation: submitted == completed + unfinished + lost.
	if got := m.Completed + m.Unfinished + m.TasksLost; got != 1 {
		t.Errorf("conservation broken: %d accounted of 1 submitted", got)
	}
}

func TestFaultTraceKindsRecorded(t *testing.T) {
	rec := &obs.Recorder{}
	eng := faultRig(t, faultPolicy(), rec)
	advanceTo(t, eng, 5)
	nodeID, _ := busyRPE(t, eng)
	injectFaults(eng, []faults.Event{
		{Time: 10, Kind: faults.KindNodeCrash, Node: nodeID, Seq: 1},
		{Time: 40, Kind: faults.KindNodeRecover, Node: nodeID, Seq: 1},
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.Kind{obs.KindNodeDown, obs.KindNodeUp, obs.KindLeaseExpired, obs.KindFail, obs.KindRetry, obs.KindDispatch, obs.KindComplete} {
		if kinds[want] == 0 {
			t.Errorf("trace kind %q never recorded (got %v)", want, kinds)
		}
	}
}

// busyRPE locates the RPE running the rig's single hardware task.
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

// TestTransientFailureRetriesTask: an upset that aborts the rig's task
// mid-run charges the wasted attempt. The retried task finishes later
// than in a fault-free run by most of the work thrown away, and the
// struck element stays in the grid.
func TestTransientFailureRetriesTask(t *testing.T) {
	baseM, err := faultRig(t, faultPolicy(), nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if baseM.Completed != 1 {
		t.Fatalf("baseline completed = %d", baseM.Completed)
	}
	eng := faultRig(t, faultPolicy(), nil)
	advanceTo(t, eng, 5)
	nodeID, elemID := busyRPE(t, eng)
	sel, _ := seuSelector(t, eng, nodeID)
	injectFaults(eng, []faults.Event{{Time: 10, Kind: faults.KindSEU, Node: nodeID, Seq: 1, Selector: sel}})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Failures() != 1 {
		t.Errorf("failures = %d, want 1", m.Failures())
	}
	if m.Completed != 1 || m.Unfinished != 0 {
		t.Errorf("completed=%d unfinished=%d; the retried task must finish", m.Completed, m.Unfinished)
	}
	if m.MeanTurnaround() < baseM.MeanTurnaround()+5 {
		t.Errorf("turnaround %.1fs vs baseline %.1fs: wasted attempt not charged",
			m.MeanTurnaround(), baseM.MeanTurnaround())
	}
	n, _ := eng.Reg.Node(nodeID)
	if !slices.ContainsFunc(n.RPEs(), func(el *node.Element) bool { return el.ID == elemID }) {
		t.Error("a transient upset removed the element")
	}
}

// TestPermanentFailureRemovesElement: a crash with no recovery takes the
// node out of the grid for good, and the task migrates to a surviving
// device and completes.
func TestPermanentFailureRemovesElement(t *testing.T) {
	eng := faultRig(t, faultPolicy(), nil)
	advanceTo(t, eng, 5)
	nodeID, _ := busyRPE(t, eng)
	injectFaults(eng, []faults.Event{{Time: 10, Kind: faults.KindNodeCrash, Node: nodeID, Seq: 1}})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Reg.Node(nodeID); ok {
		t.Errorf("node %s still registered after a crash without recovery", nodeID)
	}
	if m.Completed != 1 || m.NodeRecoveries != 0 {
		t.Errorf("completed=%d recoveries=%d; the task should migrate to a surviving RPE", m.Completed, m.NodeRecoveries)
	}
}

// TestFailureOnIdleElementIsHarmless: upsets that strike unconfigured
// fabric, a node without RPEs or an unknown node change nothing and are
// not counted.
func TestFailureOnIdleElementIsHarmless(t *testing.T) {
	reg, err := BuildGrid(DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var gppNode, hybridNode string
	for _, n := range reg.Nodes() {
		if len(n.RPEs()) == 0 {
			gppNode = n.ID
		} else {
			hybridNode = n.ID
		}
	}
	mm, _ := rms.NewMatchmaker(reg, nil)
	eng, _ := NewEngine(DefaultConfig(), reg, mm)
	injectFaults(eng, []faults.Event{
		{Time: 1, Kind: faults.KindSEU, Node: hybridNode, Seq: 1},
		{Time: 2, Kind: faults.KindSEU, Node: gppNode, Seq: 2},
		{Time: 3, Kind: faults.KindSEU, Node: "NoSuchNode", Seq: 3},
	})
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.SEUFaults != 0 || m.Failures() != 0 || eng.Reg.Len() != 4 {
		t.Errorf("seu=%d failures=%d nodes=%d; idle strikes must be harmless", m.SEUFaults, m.Failures(), eng.Reg.Len())
	}
}

// TestFailureEventVisibleToMonitoringUser: a user who asked for
// monitoring sees the abort of their task in the submission's events.
func TestFailureEventVisibleToMonitoringUser(t *testing.T) {
	eng := faultRig(t, faultPolicy(), nil)
	advanceTo(t, eng, 5)
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
	advanceTo(t, eng, 7)
	nodeID, _ := runningOn(t, eng, "monitored")
	injectFaults(eng, []faults.Event{
		{Time: 8, Kind: faults.KindNodeCrash, Node: nodeID, Seq: 1},
		{Time: 9, Kind: faults.KindNodeRecover, Node: nodeID, Seq: 1},
	})
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sawFailure bool
	for _, sub := range eng.J.Submissions() {
		for _, ev := range sub.Events {
			if sub.User == "alice" && strings.HasPrefix(ev.What, "failed on "+nodeID) {
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
	if m.Failures() != 0 {
		t.Errorf("failures = %d without injection", m.Failures())
	}
}

// TestRuntimeAttachUnblocksWaitingTasks: a hardware workload sits
// unschedulable while the only hybrid node is down, and runs once the
// node rejoins the grid at t=50.
func TestRuntimeAttachUnblocksWaitingTasks(t *testing.T) {
	gs := GridSpec{GPPNodes: 1, GPPsPerNode: 2, GPPCaps: capability.GPPCaps{
		CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 8192, Cores: 4},
		HybridNodes: 1, RPEDevices: []string{"XC5VLX330T"}}
	reg, err := BuildGrid(gs)
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
	var hybrid string
	for _, n := range reg.Nodes() {
		if len(n.RPEs()) > 0 {
			hybrid = n.ID
		}
	}
	injectFaults(eng, []faults.Event{
		{Time: 0, Kind: faults.KindNodeCrash, Node: hybrid, Seq: 1},
		{Time: 50, Kind: faults.KindNodeRecover, Node: hybrid, Seq: 1},
	})
	ws := DefaultWorkload(30, 2)
	ws.ShareUserHW = 1
	ws.ShareSoftcore = 0
	gen, err := Generate(sim.NewRNG(6), ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 30 {
		t.Fatalf("completed = %d, want all 30 after the node rejoined", m.Completed)
	}
	if m.Wait.Quantile(0.1) <= 0 {
		t.Error("tasks should have waited for the hybrid node")
	}
}

// TestRuntimeDetachWaitsForDrain: a crashed node that still holds a
// lease stays registered until the lease expires, and leaves the
// registry then; its task moves on and nothing is lost.
func TestRuntimeDetachWaitsForDrain(t *testing.T) {
	eng := faultRig(t, faultPolicy(), nil)
	advanceTo(t, eng, 5)
	nodeID, _ := busyRPE(t, eng)
	injectFaults(eng, []faults.Event{{Time: 10, Kind: faults.KindNodeCrash, Node: nodeID, Seq: 1}})
	registered := func(at sim.Time, want bool) {
		eng.S.Schedule(at, "probe", func() {
			if _, ok := eng.Reg.Node(nodeID); ok != want {
				t.Errorf("t=%v: node %s registered = %t, want %t", at, nodeID, ok, want)
			}
		})
	}
	registered(10, true)
	registered(10+sim.Time(faultPolicy().LeaseTTLSeconds)+0.5, false)
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.LeaseExpiries != 1 || m.Completed != 1 || m.TasksLost != 0 {
		t.Errorf("expiries=%d completed=%d lost=%d; the drained task must finish elsewhere",
			m.LeaseExpiries, m.Completed, m.TasksLost)
	}
}

// peakQueue is a sim.Scheduler that records the most live events it
// ever held.
type peakQueue struct {
	sim.Scheduler
	peak *int
}

func (q peakQueue) Push(t sim.Time, priority int, label string, fn sim.Handler) sim.EventRef {
	ref := q.Scheduler.Push(t, priority, label, fn)
	*q.peak = max(*q.peak, q.Len())
	return ref
}

// TestPeakQueuedEventsFaultShape pins the event queue to work in flight
// on the repository benchmark's sim-faults shape (300 tasks at λ =
// 0.1/s under hostile crashes and SEUs, six scenarios seeded as bench
// seeds them from 4101): the trace and the fault timeline are streamed,
// so the queue holds completions, lease renewals and retry backoffs,
// 37 at its peak. A fault queued as an event would bring the whole
// timeline, about 1,000 events, into the queue at once.
func TestPeakQueuedEventsFaultShape(t *testing.T) {
	const ceiling = 64
	f := faults.Default()
	f.CrashRate = 0.05
	f.MeanOutageSeconds = 20
	f.SEURate = 0.08
	f.Retry = faults.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 15}
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	cfg := DefaultConfig()
	cfg.Scheduler = func() sim.Scheduler { return peakQueue{sim.NewWheelQueue(), &peak} }
	root := sim.NewRNG(4101)
	for i := 0; i < 6; i++ {
		seed := root.SplitSeed(uint64(i))
		gen, err := Generate(sim.NewRNG(seed), DefaultWorkload(300, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunScenario(context.Background(), ScenarioSpec{
			Seed: seed, Config: cfg, Grid: DefaultGridSpec(), Trace: gen, Toolchain: tc, Faults: &f,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.NodeCrashes == 0 || m.SEUFaults == 0 {
			t.Fatalf("scenario %d applied %d crashes and %d SEUs; the shape lost its faults", i, m.NodeCrashes, m.SEUFaults)
		}
	}
	t.Logf("peak of %d queued events", peak)
	if peak > ceiling {
		t.Errorf("the event queue peaked at %d events, ceiling %d", peak, ceiling)
	}
}
