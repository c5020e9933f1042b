package controlplane

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestRetainedHeapPerSettledTask is the per-task memory ceiling: a tenant
// that runs 10^5 tasks one after another keeps, once they are settled,
// only each task's ID and state — not its task tuple, graph or jss
// submission.
func TestRetainedHeapPerSettledTask(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	const (
		tasks   = 100_000
		ceiling = 200 // bytes per settled task
	)
	cfg := DefaultConfig()
	te, err := newTenantEngine("acme", TierVirtualized, 1, &cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the engine so its one-off structures (event pool, fabric
	// configuration, doneLog at its cap) are not charged to the tasks.
	for i := 0; i < maxDoneLog; i++ {
		te.submit(&TaskSpec{ID: taskID("warm", i), WorkMI: 100}, 0, false)
		te.step()
	}
	heap0 := liveHeap()
	for i := 0; i < tasks; i++ {
		spec := &TaskSpec{ID: taskID("t", i), WorkMI: float64(50 + i%200), Scenario: scenarioOf(i)}
		if spec.Scenario == "userhw" {
			spec.Design = "aes128"
		}
		if resp := te.submit(spec, 0, false); !resp.OK {
			t.Fatalf("submit %d: %s %s", i, resp.Code, resp.Error)
		}
		te.step()
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

// TestHeapPerTenant is the per-tenant memory ceiling: 10^4 tenants that
// each submit one task and drain cost at most 9 KB apiece.
func TestHeapPerTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("heap ceiling run skipped in -short mode")
	}
	const (
		tenants = 10_000
		ceiling = 9 << 10 // bytes per tenant
	)
	tiers := []string{"full", "virtualized", "background"}
	s := newTestServer(t, DefaultConfig())
	heap0 := liveHeap()
	for i := 0; i < tenants; i++ {
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: fmt.Sprintf("tenant-%05d", i), Tier: tiers[i%len(tiers)],
			Task: spec("t0", float64(50+i%200))}))
	}
	mustOK(t, s.Do(Request{Op: OpDrain}))
	perTenant := (liveHeap() - heap0) / tenants
	runtime.KeepAlive(s)
	t.Logf("%.0f B per tenant", perTenant)
	if perTenant > ceiling {
		t.Errorf("tenants cost %.0f B each, ceiling %d", perTenant, ceiling)
	}
}

// TestSettledTasksUnreachable pins what a drained server keeps: every
// tenant's jss holds no submission, and no task record reaches its task
// tuple, graph or submission — whether the task completed, was evicted
// or was canceled. Status and cancel still answer for every settled ID,
// byte for byte as before settling.
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

	// The drain reply orders every shard's work before these reads, and
	// idle shards write nothing.
	states := map[taskState]int{}
	var settled []*cpTask
	var owners []string
	for _, sh := range s.shards {
		for _, te := range sh.tenants {
			if n, q := len(te.jss.Submissions()), te.jss.QueueLength(); n != 0 || q != 0 {
				t.Errorf("tenant %s: jss holds %d submissions, %d queued after drain", te.id, n, q)
			}
			for _, ct := range te.tasks {
				if ct.t != nil || ct.sub != nil {
					t.Errorf("tenant %s task %s (%s) still reaches its task or submission", te.id, ct.id, ct.state)
				}
				states[ct.state]++
				settled = append(settled, ct)
				owners = append(owners, te.id)
			}
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
	for i, ct := range settled {
		tenant := owners[i]
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
