package controlplane

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/softcore"
	"repro/internal/task"
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

// TestRetainedHeapPerSettledTask is the per-task memory ceiling: a tenant
// that runs 10^5 tasks one after another keeps, once they are settled,
// only each task's record in its task table (state, ID length, ID and
// its share of the index) — not its task tuple. It reads 21 B, alone,
// in the package run and under -race (2 vCPUs, amd64, Go 1.24.0).
func TestRetainedHeapPerSettledTask(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	const (
		tasks   = 100_000
		ceiling = 32 // bytes per settled task
	)
	cfg := DefaultConfig()
	te := testTenant(t, "acme", TierVirtualized, &cfg)
	// Warm the engine so its one-off structures (fabric configuration,
	// synthesis cache) are not charged to the tasks.
	for i := 0; i < 4096; i++ {
		submitRun(te, &TaskSpec{ID: taskID("warm", i), WorkMI: 100})
	}
	heap0 := liveHeap()
	for i := 0; i < tasks; i++ {
		spec := &TaskSpec{ID: taskID("t", i), WorkMI: float64(50 + i%200), Scenario: scenarioOf(i)}
		if spec.Scenario == "userhw" {
			spec.Design = "aes128"
		}
		if resp := submitRun(te, spec); !resp.OK {
			t.Fatalf("submit %d: %s %s", i, resp.Code, resp.Error)
		}
	}
	perTask := (liveHeap() - heap0) / tasks
	runtime.KeepAlive(te)
	if st := te.snapshot(); st.InFlight != 0 || !st.conserved() {
		t.Fatalf("after drain: %+v", st)
	}
	t.Logf("retained %.0f B per settled task", perTask)
	if perTask > ceiling {
		t.Errorf("settled tasks retain %.0f B each, ceiling %d", perTask, ceiling)
	}
}

// scenarioOf spreads a task sequence over the three wire scenarios.
func scenarioOf(i int) string {
	return [...]string{"software", "softcore", "userhw"}[i%3]
}

// testTenant builds a tenant engine as a server under cfg builds one,
// with seed 1 and the admission clock at 0.
func testTenant(t *testing.T, id string, tier Tier, cfg *Config) *tenantEngine {
	t.Helper()
	policies := tierPolicies(cfg)
	te, err := newTenantEngine(id, tier, &policies[tier], 1, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return te
}

// submitRun admits spec on te and runs an accepted task at once, as a
// running server's shard does, from the package's scratch option slice.
func submitRun(te *tenantEngine, spec *TaskSpec) Response {
	var tk task.Task
	resp := te.submit(spec, 0, false, &tk)
	if resp.OK {
		te.execute(&tk, &testOpts)
	}
	return resp
}

// testOpts is the scratch option slice of the tests that run a tenant
// without a shard.
var testOpts []sched.Option

// TestHeapPerTenant is the per-tenant memory ceiling: 10^4 tenants that
// submit and drain cost at most the ceiling apiece. What a tenant owns is
// its dynamic state, with its node and registry indexed by their lists
// alone; the capability sets, soft-core library, toolchain and tier
// policies are shared (TestTenantsShareCatalog).
func TestHeapPerTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	const tenants = 10_000
	tiers := []string{"full", "virtualized", "background"}
	for _, tc := range []struct {
		name    string
		tasks   int
		ceiling float64 // bytes per tenant
	}{
		// One software task each: the tenant's own state. It reads
		// 1,460 B (1,497 B under -race; 2 vCPUs, amd64, Go 1.24.0), and
		// the ceiling is that plus 5%.
		{"one-task", 1, 1533},
		// rmsd-fanout's shape: ten tasks each over the three wire
		// scenarios, so a tenant also holds its record of the userhw
		// synthesis it was charged for (the result is the toolchain's)
		// and ten settled tasks. It reads 1,747 B (1,763 B under -race),
		// and the ceiling is that plus 5%.
		{"fanout", 10, 1834},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, DefaultConfig())
			heap0 := liveHeap()
			for i := 0; i < tenants; i++ {
				for j := 0; j < tc.tasks; j++ {
					ts := spec(taskID("t", j), float64(50+(i+j)%200))
					if tc.tasks > 1 {
						ts.Scenario = scenarioOf(i + j)
						if ts.Scenario == "userhw" {
							ts.Design = "aes128"
						}
					}
					mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: fmt.Sprintf("tenant-%05d", i), Tier: tiers[i%len(tiers)], Task: ts}))
				}
			}
			mustOK(t, s.Do(Request{Op: OpDrain}))
			perTenant := (liveHeap() - heap0) / tenants
			runtime.KeepAlive(s)
			t.Logf("%.0f B per tenant", perTenant)
			if perTenant > tc.ceiling {
				t.Errorf("tenants cost %.0f B each, ceiling %.0f", perTenant, tc.ceiling)
			}
		})
	}
}

// TestTenantEngineSize pins the tenant record to the 256-B size class:
// it holds the tier's policy and its sink state by pointer, stores no
// name in its counters and no rate in its bucket.
func TestTenantEngineSize(t *testing.T) {
	if size := unsafe.Sizeof(tenantEngine{}); size > 256 {
		t.Errorf("tenantEngine is %d B, want at most 256", size)
	}
}

// TestDrainedBacklogReleased pins that a drain leaves a tenant no queue
// array sized by the backlog it ran: a background tenant that queued its
// whole 16,384-task bound while paused retains, once drained, what a
// tenant that ran the same tasks one by one retains. Each side is
// measured twice and its smaller reading kept, because a reading also
// holds the runtime's record of any OS thread started inside it
// (runtime.allocm, 5,504 B under -race), which only ever adds.
func TestDrainedBacklogReleased(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	const slack = 4096 // bytes
	backlog := TierBackground.Policy().MaxQueue
	retained := func(paused bool) float64 {
		s := newTestServer(t, DefaultConfig())
		heap0 := liveHeap()
		if paused {
			mustOK(t, s.Do(Request{Op: OpPause}))
		}
		for i := 0; i < backlog; i++ {
			mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "bg", Tier: "background", Task: spec(taskID("t", i), 100)}))
		}
		mustOK(t, s.Do(Request{Op: OpDrain}))
		heap := liveHeap() - heap0
		if st := mustOK(t, s.Do(Request{Op: OpStats, Tenant: "bg"})).Stats; st.Completed != backlog {
			t.Fatalf("paused=%v: %+v", paused, st)
		}
		runtime.KeepAlive(s)
		return heap
	}
	running := min(retained(false), retained(false))
	drained := min(retained(true), retained(true))
	t.Logf("running %.0f B, drained backlog %.0f B", running, drained)
	if drained > running+slack {
		t.Errorf("a drained backlog of %d tasks retains %.0f B beyond a running tenant's %.0f B, slack %d", backlog, drained-running, running, slack)
	}
}

// setID is a capability set's map identity.
func setID(s capability.Set) uintptr { return reflect.ValueOf(s).Pointer() }

// TestTenantsShareCatalog pins what two same-tier tenants on different
// shards share: each element's capability set, the soft-core library and
// a design's synthesis are one read-only value, while elements, fabrics,
// matchmakers and the CAD time each is charged stay private to each
// tenant.
func TestTenantsShareCatalog(t *testing.T) {
	s := newTestServer(t, DefaultConfig())
	a, b := "tenant-a", ""
	for i := 0; b == ""; i++ {
		if name := taskID("tenant-b", i); s.shardFor(name) != s.shardFor(a) {
			b = name
		}
	}
	for _, tenant := range []string{a, b} {
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: tenant, Tier: "full", Task: spec("t0", 100)}))
		for _, id := range []string{"u1", "u2"} {
			mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: tenant, Tier: "full", Task: &TaskSpec{ID: id, WorkMI: 100, Scenario: "userhw", Design: "aes128"}}))
		}
	}
	mustOK(t, s.Do(Request{Op: OpDrain}))

	// The drain took every shard's lock after that shard's work, and
	// nothing writes a shard's tenants since.
	ta, tb := s.shardFor(a).tenants[a], s.shardFor(b).tenants[b]
	if ta.mm == tb.mm {
		t.Fatal("two tenants share a matchmaker")
	}
	ea, eb := ta.reg.Nodes()[0].Elements(), tb.reg.Nodes()[0].Elements()
	if len(ea) != len(eb) || len(ta.reg.Nodes()[0].RPEs()) < 2 {
		t.Fatalf("full-tier slices: %d and %d elements", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] == eb[i] || (ea[i].Fabric != nil && ea[i].Fabric == eb[i].Fabric) {
			t.Errorf("%s: tenants share the element's dynamic state", ea[i].ID)
		}
		if setID(ea[i].Caps()) != setID(eb[i].Caps()) {
			t.Errorf("%s: each tenant holds its own capability set", ea[i].ID)
		}
	}

	var probe task.Task
	if err := ta.buildTask(&TaskSpec{ID: "probe", WorkMI: 100, Scenario: "softcore"}, &probe); err != nil {
		t.Fatal(err)
	}
	cores := func(te *tenantEngine) []*softcore.Core {
		cands, err := te.mm.Candidates(probe.ExecReq)
		if err != nil {
			t.Fatal(err)
		}
		var out []*softcore.Core
		for _, c := range cands {
			out = append(out, c.Core)
		}
		return out
	}
	ca, cb := cores(ta), cores(tb)
	if len(ca) == 0 || len(ca) != len(cb) {
		t.Fatalf("soft-core candidates: %d and %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] || setID(ca[i].Caps()) != setID(cb[i].Caps()) {
			t.Errorf("candidate %d: each tenant holds its own soft-core library", i)
		}
	}

	// Each tenant's userhw tasks ran on its first RPE from the toolchain's
	// one synthesis of the design for that part: the configuration
	// resident there is that result's bitstream. Each matchmaker charged
	// the synthesis's CAD time once, so each clock holds it once.
	tc, err := hdl.DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	d, err := hdl.LookupIP("aes128")
	if err != nil {
		t.Fatal(err)
	}
	dev := ta.reg.Nodes()[0].RPEs()[0].Fabric.Device()
	res, err := tc.Synthesize(d, dev, dev.PartialRecon)
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range []*tenantEngine{ta, tb} {
		rpe := te.reg.Nodes()[0].RPEs()[0]
		if r := rpe.Fabric.FindLoaded(res.Bitstream.ID); r == nil || r.Bitstream != res.Bitstream {
			t.Errorf("%s: %s does not hold the toolchain's synthesis of %s", te.id, rpe.ID, d.Name)
		}
		if clock := te.snapshot().VirtualSeconds; clock < res.ToolSeconds || clock >= 2*res.ToolSeconds {
			t.Errorf("%s: clock reads %.3f s, want the %.3f s of CAD time charged once", te.id, clock, res.ToolSeconds)
		}
	}
}

// TestSettledTasksUnreachable pins what a drained server keeps: each
// task that completed, was evicted or was canceled is only its record in
// the tenant's task table (TestSettledTasksCollected proves the queue
// keeps no task tuple). Status and cancel still answer for every settled ID, byte
// for byte as before settling.
func TestSettledTasksUnreachable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 3
	cfg.Seed = 9
	cfg.Faults = faults.Spec{CrashRate: 0.05, MeanOutageSeconds: 5, SEURate: 0.05, HorizonSeconds: 500}
	s := newTestServer(t, cfg)
	mustOK(t, s.Do(Request{Op: OpPause}))

	tiers := []string{"full", "virtualized", "background"}
	rng := sim.NewRNG(77)
	for i := 0; i < 400; i++ {
		tenant := fmt.Sprintf("t%02d", i%12)
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: tenant, Tier: tiers[i%12%3],
			Task: &TaskSpec{ID: taskID("task", i), WorkMI: float64(100 + rng.Intn(5000)), Scenario: scenarioOf(i / 12), Design: "aes128"}}))
		if i%7 == 0 {
			mustOK(t, s.Do(Request{Op: OpCancel, Tenant: tenant, TaskID: taskID("task", i)}))
		}
	}
	mustOK(t, s.Do(Request{Op: OpResume}))
	mustOK(t, s.Do(Request{Op: OpDrain}))

	// The drain took every shard's lock after that shard's work, and
	// nothing writes a shard's tenants since.
	type settledTask struct {
		tenant, id string
		state      taskState
	}
	states := map[taskState]int{}
	var settled []settledTask
	for _, sh := range s.shards {
		for _, te := range sh.tenants {
			te.tasks.each(func(id string, st taskState) {
				states[st]++
				settled = append(settled, settledTask{te.id, id, st})
			})
		}
	}
	for _, st := range []taskState{stateDone, stateEvicted, stateCanceled} {
		if states[st] == 0 {
			t.Errorf("no %s task: the trace does not exercise every terminal state (%v)", st, states)
		}
	}
	if states[stateQueued] != 0 {
		t.Errorf("%d tasks still queued after drain", states[stateQueued])
	}

	// Wire answers for settled tasks; resume reopens admission so a
	// duplicate submit reaches the duplicate-ID check.
	mustOK(t, s.Do(Request{Op: OpResume}))
	for _, ct := range settled {
		tenant := ct.tenant
		status := wireJSON(t, s.Do(Request{Op: OpStatus, Tenant: tenant, TaskID: ct.id}))
		if want := fmt.Sprintf(`{"ok":true,"op":"status","tenant":%q,"task_id":%q,"state":%q}`, tenant, ct.id, ct.state); status != want {
			t.Fatalf("status = %s, want %s", status, want)
		}
		cancel := wireJSON(t, s.Do(Request{Op: OpCancel, Tenant: tenant, TaskID: ct.id}))
		if want := fmt.Sprintf(`{"ok":false,"op":"cancel","code":"bad_request","error":"task %s is already %s","state":%q}`,
			quoteJSON(t, ct.id), ct.state, ct.state); cancel != want {
			t.Fatalf("cancel = %s, want %s", cancel, want)
		}
		dup := wireJSON(t, s.Do(Request{Op: OpSubmit, Tenant: tenant, Task: spec(ct.id, 10)}))
		if want := fmt.Sprintf(`{"ok":false,"op":"submit","code":"invalid_task","error":"task %s already exists"}`,
			quoteJSON(t, ct.id)); dup != want {
			t.Fatalf("duplicate submit = %s, want %s", dup, want)
		}
	}
}

// TestSettledTasksCollected proves that a settled task leaves nothing
// behind in its tenant's queue: after a cancel every slot of the queue's
// array past its length is zero, and after the run every slot is and the
// queue has let go of the array. The background tier evicts on its first
// fault abort, so the run mixes completions, evictions after "retries
// exhausted" and one task canceled from the middle of the paused queue.
// A pop that leaves its slot set, or a cancel that removes by append
// (keeping a copy of the last task in the vacated tail slot), leaves a
// slot set.
func TestSettledTasksCollected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.Spec{CrashRate: 0.05, MeanOutageSeconds: 5, SEURate: 0.05, HorizonSeconds: 2000}
	te := testTenant(t, "bg", TierBackground, &cfg)
	const n = 40
	for i := 0; i < n; i++ {
		// Queued as a paused server's shard queues an accepted task.
		var tk task.Task
		mustOK(t, te.submit(spec(taskID("t", i), float64(50+(i%2)*500000)), 0, false, &tk))
		te.queue = append(te.queue, tk)
	}
	array := te.queue[:cap(te.queue)]
	setFrom := func(from int) int {
		for i := from; i < len(array); i++ {
			if !reflect.ValueOf(array[i]).IsZero() {
				return i
			}
		}
		return -1
	}
	mustOK(t, te.cancel(taskID("t", n/2)))
	if i := setFrom(len(te.queue)); i >= 0 {
		t.Errorf("after the cancel, slot %d past the queue's %d tasks holds %s", i, len(te.queue), array[i].ID)
	}
	te.run(&testOpts)
	if i := setFrom(0); i >= 0 {
		t.Errorf("after the run, slot %d holds %s", i, array[i].ID)
	}
	if te.queue != nil {
		t.Errorf("the drained queue keeps an array of %d slots", cap(te.queue))
	}

	st := te.snapshot()
	if st.Completed == 0 || st.Canceled != 1 || st.Evicted == 0 || st.Evicted != st.FaultAborts || st.Retries != 0 {
		t.Fatalf("want completions, one cancel and only retries-exhausted evictions: %+v", st)
	}
}

// TestHeapPerFaultyTenant is the per-tenant ceiling under `rmsd -faults`
// (faults.Default over a 10^6 s horizon): a tenant keeps a strike
// cursor, not its fault timeline or the times of its strikes. The first
// tenant of a process also pays its one-off shared state (toolchain,
// capability sets, soft-core library), so one is built before the first
// heap reading; the next 100 share one server's tier policies, as a
// server's tenants do. They read 1,864 B each, run alone or in the
// package run (1,888 B under -race; 2 vCPUs, amd64, Go 1.24.0); the
// ceiling is that plus 5%. More tenants would not sharpen it: each
// cursor replays its draws over the horizon, so 1,000 tenants take
// seconds.
func TestHeapPerFaultyTenant(t *testing.T) {
	const (
		tenants = 100
		ceiling = 1957 // bytes per tenant
	)
	cfg := DefaultConfig()
	cfg.Faults = faults.Default()
	cfg.Faults.HorizonSeconds = 1e6
	policies := tierPolicies(&cfg)
	newTenant := func() *tenantEngine {
		te, err := newTenantEngine("acme", TierVirtualized, &policies[TierVirtualized], 1, &cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return te
	}
	first := newTenant()
	tes := make([]*tenantEngine, tenants)
	heap0 := liveHeap()
	for i := range tes {
		tes[i] = newTenant()
	}
	perTenant := (liveHeap() - heap0) / tenants
	runtime.KeepAlive(first)
	runtime.KeepAlive(tes)
	t.Logf("%.0f B per tenant", perTenant)
	if perTenant > ceiling {
		t.Errorf("faulty tenants cost %.0f B each, ceiling %d", perTenant, ceiling)
	}
}

// TestFaultyFirstContactAllocs pins what a tenant's first contact
// allocates under `rmsd -faults` (faults.Default over a 10^6 s horizon)
// beyond a fault-free tenant's: its strike cursor, with the cursor's
// RNGs and node list, generated as the tenant's clock reaches it rather
// than whole. It reads 8 (2 vCPUs, amd64, Go 1.24.0).
func TestFaultyFirstContactAllocs(t *testing.T) {
	const extraCeiling = 8
	newTenant := func(cfg *Config) func() {
		policies := tierPolicies(cfg)
		return func() {
			if _, err := newTenantEngine("acme", TierVirtualized, &policies[TierVirtualized], 1, cfg, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain := DefaultConfig()
	faulty := DefaultConfig()
	faulty.Faults = faults.Default()
	faulty.Faults.HorizonSeconds = 1e6
	base := testing.AllocsPerRun(20, newTenant(&plain))
	got := testing.AllocsPerRun(20, newTenant(&faulty))
	t.Logf("first contact allocates %.0f times, %.0f without faults", got, base)
	if got-base > extraCeiling {
		t.Errorf("a faulty first contact allocates %.0f times more than a fault-free one, want at most %d", got-base, extraCeiling)
	}
}

// submitRunAllocs is what one steady-state submit and run allocates on a
// warm tenant in each wire scenario: the test's own formatting of the
// task ID.
const submitRunAllocs = 1

// TestSubmitRunAllocs pins the allocations of one task's whole life on a
// warm tenant: admission, placement, execution and settling.
func TestSubmitRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, scenario string
		dataMB         float64
	}{
		{"software", "software", 0},
		{"softcore", "softcore", 0},
		{"userhw", "userhw", 0},
		// A task's data is its Work.DataMB: it builds no input or output list.
		{"software-with-data", "software", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			te := testTenant(t, "acme", TierFull, &cfg)
			i := 0
			one := func() {
				i++
				resp := submitRun(te, &TaskSpec{ID: taskID("t", i), WorkMI: 500, Scenario: tc.scenario, Design: "aes128", DataMB: tc.dataMB})
				if !resp.OK {
					t.Fatalf("submit: %s %s", resp.Code, resp.Error)
				}
			}
			for range 64 {
				one()
			}
			avg := testing.AllocsPerRun(200, one)
			if st := te.snapshot(); st.Completed != i {
				t.Fatalf("completed %d of %d tasks", st.Completed, i)
			}
			t.Logf("%.0f allocs per submit and run", avg)
			if avg > submitRunAllocs {
				t.Errorf("one submit and run allocates %.0f times, want at most %d", avg, submitRunAllocs)
			}
		})
	}
}

// wireJSON renders a response exactly as the wire front end encodes it.
func wireJSON(t *testing.T, resp Response) string {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// quoteJSON renders %q of s as it appears inside a JSON string.
func quoteJSON(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(fmt.Sprintf("%q", s))
	if err != nil {
		t.Fatal(err)
	}
	return string(b[1 : len(b)-1])
}
