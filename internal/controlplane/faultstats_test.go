package controlplane

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestFaultRepairStats pins the MTTR accounting the release report
// consumes: fault aborts, repaired-task counts, and repair time must be
// internally consistent with the retry counters and leave conservation
// untouched.
func TestFaultRepairStats(t *testing.T) {
	_, stats := runTrace(t, 2, true)
	var aborts, retries, repaired int
	var repairSeconds float64
	for _, st := range stats {
		if !st.conserved() {
			t.Errorf("tenant %s: counters do not balance: %+v", st.Tenant, st)
		}
		// Every re-queued attempt was first a fault abort; aborts that
		// exhausted retries are counted but not retried.
		if st.FaultAborts < st.Retries {
			t.Errorf("tenant %s: fault_aborts %d < retries %d", st.Tenant, st.FaultAborts, st.Retries)
		}
		if st.RepairedTasks > st.Completed {
			t.Errorf("tenant %s: repaired %d > completed %d", st.Tenant, st.RepairedTasks, st.Completed)
		}
		if st.RepairSeconds < 0 {
			t.Errorf("tenant %s: negative repair seconds %v", st.Tenant, st.RepairSeconds)
		}
		if st.RepairedTasks > 0 && st.RepairSeconds <= 0 {
			t.Errorf("tenant %s: %d repaired tasks but zero repair time", st.Tenant, st.RepairedTasks)
		}
		if st.RepairedTasks == 0 && st.RepairSeconds != 0 {
			t.Errorf("tenant %s: repair time %v without repaired tasks", st.Tenant, st.RepairSeconds)
		}
		aborts += st.FaultAborts
		retries += st.Retries
		repaired += st.RepairedTasks
		repairSeconds += st.RepairSeconds
	}
	// The hostile trace must actually exercise the repair path, or this
	// test (and the report's MTTR column) is vacuous.
	if aborts == 0 || repaired == 0 || repairSeconds == 0 {
		t.Errorf("faulty trace exercised no repairs: aborts=%d repaired=%d repair_s=%v",
			aborts, repaired, repairSeconds)
	}
}

// TestFaultStatsOmittedWhenClean pins the wire-compat contract: a
// fault-free run serializes TenantStats exactly as before the repair
// fields existed, so old snapshots and new ones stay interchangeable.
func TestFaultStatsOmittedWhenClean(t *testing.T) {
	_, stats := runTrace(t, 1, false)
	for _, st := range stats {
		if st.FaultAborts != 0 || st.RepairedTasks != 0 || st.RepairSeconds != 0 {
			t.Fatalf("tenant %s: fault-free run recorded repairs: %+v", st.Tenant, st)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"fault_aborts", "repaired_tasks", "repair_seconds"} {
			if strings.Contains(string(b), field) {
				t.Errorf("tenant %s: clean snapshot serializes %q: %s", st.Tenant, field, b)
			}
		}
	}
}

// TestZeroMaxRetriesEvictsOnFirstAbort pins the control plane's reading
// of RetryPolicy.MaxRetries == 0: a tenant evicts a task on its first
// fault abort, which TierBackground's zero policy relies on, while
// faults.RetryPolicy documents zero as unlimited and grid.Engine retries
// without limit. In one faulty run, every struck background task is
// evicted unretried and struck virtualized tasks are retried.
func TestZeroMaxRetriesEvictsOnFirstAbort(t *testing.T) {
	if got := TierBackground.Policy().Retry.MaxRetries; got != 0 {
		t.Fatalf("background MaxRetries = %d, want 0", got)
	}
	cfg := DefaultConfig()
	cfg.Faults = faults.Spec{CrashRate: 0.05, MeanOutageSeconds: 5, SEURate: 0.05, HorizonSeconds: 2000}
	s := newTestServer(t, cfg)
	for i := 0; i < 20; i++ {
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "bg", Tier: "background", Task: spec(taskID("bg", i), 500000)}))
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "virt", Tier: "virtualized", Task: spec(taskID("virt", i), 500000)}))
	}
	mustOK(t, s.Do(Request{Op: OpDrain}))

	bg := *mustOK(t, s.Do(Request{Op: OpStats, Tenant: "bg"})).Stats
	if bg.FaultAborts == 0 {
		t.Fatalf("no background task was struck: %+v", bg)
	}
	if bg.Retries != 0 || bg.Evicted != bg.FaultAborts {
		t.Errorf("background: %d fault aborts, %d retries, %d evicted; want every abort evicted unretried",
			bg.FaultAborts, bg.Retries, bg.Evicted)
	}
	virt := *mustOK(t, s.Do(Request{Op: OpStats, Tenant: "virt"})).Stats
	if virt.FaultAborts == 0 || virt.Retries == 0 {
		t.Errorf("virtualized: %d fault aborts, %d retries; want struck tasks retried", virt.FaultAborts, virt.Retries)
	}
}
