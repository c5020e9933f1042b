package controlplane

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite golden state files from the current model")

// compareGolden diffs got against the named testdata file, rewriting it
// first under -update. Review -update diffs like any other code change.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// goldenServer runs a small pinned scenario: three tenants on different
// tiers, a few tasks each (one canceled, faults on), drained to
// completion. Any change to admission, placement, fault strikes, retry
// policy, cost accounting, or the dump format shows up as a diff.
func goldenServer(t *testing.T) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Seed = 7
	cfg.Faults = faults.Spec{CrashRate: 0.1, MeanOutageSeconds: 4, SEURate: 0.1, HorizonSeconds: 200}
	s := newTestServer(t, cfg)
	mustOK(t, s.Do(Request{Op: OpPause}))
	type sub struct {
		tenant, tier string
		task         *TaskSpec
	}
	subs := []sub{
		{"acme", "full", &TaskSpec{ID: "a1", WorkMI: 4000, Parallel: 0.5}},
		{"acme", "full", &TaskSpec{ID: "a2", WorkMI: 9000, Scenario: "userhw", Design: "aes128", Parallel: 0.9}},
		{"acme", "full", &TaskSpec{ID: "a3", WorkMI: 1000}},
		{"birch", "virtualized", &TaskSpec{ID: "b1", WorkMI: 2500, Scenario: "softcore", Parallel: 0.7}},
		{"birch", "virtualized", &TaskSpec{ID: "b2", WorkMI: 500, DataMB: 16}},
		{"cedar", "background", &TaskSpec{ID: "c1", WorkMI: 12000, Parallel: 0.3}},
		{"cedar", "background", &TaskSpec{ID: "c2", WorkMI: 800}},
	}
	for _, sb := range subs {
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: sb.tenant, Tier: sb.tier, Task: sb.task}))
	}
	mustOK(t, s.Do(Request{Op: OpCancel, Tenant: "cedar", TaskID: "c2"}))
	mustOK(t, s.Do(Request{Op: OpDrain}))
	return s
}

// TestDumpStateGolden pins the deterministic `rmsd -dump-state` /
// OpDump snapshot format byte for byte.
//
//scenario:golden strategy=first-fit regime=hostile workload=control-plane file=testdata/dump_state.golden
func TestDumpStateGolden(t *testing.T) {
	s := goldenServer(t)
	dump := mustOK(t, s.Do(Request{Op: OpDump})).Dump
	direct, err := s.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if dump != direct {
		t.Error("OpDump and DumpState disagree")
	}
	compareGolden(t, "dump_state.golden", []byte(dump))
}

// TestDrainEmptiesFabric pins that a drained server holds no fabric
// state: every tenant RPE reports zero busy regions and no loaded
// configurations, and nothing is in flight.
func TestDrainEmptiesFabric(t *testing.T) {
	s := goldenServer(t)
	dumps, err := s.DumpTenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 3 {
		t.Fatalf("tenants = %d, want 3", len(dumps))
	}
	for _, d := range dumps {
		if d.Stats.InFlight != 0 {
			t.Errorf("tenant %s: %d in flight after drain", d.Stats.Tenant, d.Stats.InFlight)
		}
		if !d.Stats.conserved() {
			t.Errorf("tenant %s violates conservation: %+v", d.Stats.Tenant, d.Stats)
		}
		for _, line := range d.Fabric {
			// A leased region renders as "N busy" with N > 0; a drained
			// fabric may keep cached configurations but must not be
			// executing anything.
			if strings.Contains(line, "busy") && !strings.Contains(line, " 0 busy") {
				t.Errorf("tenant %s fabric still busy after drain: %s", d.Stats.Tenant, line)
			}
		}
	}
	// The dump itself must agree that nothing is queued.
	dump := mustOK(t, s.Do(Request{Op: OpDump})).Dump
	if !strings.Contains(dump, "in_flight=0") || strings.Contains(dump, fmt.Sprintf("in_flight=%d", 1)) {
		t.Errorf("dump shows in-flight work after drain:\n%s", dump)
	}
}

// TestTenantStatsGolden pins every tenant's counters bit for bit after
// the differential trace, clean and faulty, at one shard. The dump
// golden prints floats at %.3f; this one writes each float in full, so
// a change that reassociates a virtual-time sum, a cost or a repair
// window shows up here even when it moves only the last bits.
//
//scenario:golden strategy=first-fit regime=none,moderate workload=control-plane file=testdata/tenant_stats.golden
func TestTenantStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, withFaults := range []bool{false, true} {
		_, stats := runTrace(t, 1, withFaults)
		for _, st := range stats {
			fmt.Fprintf(&b, "faults=%v tenant=%s tier=%s submitted=%d accepted=%d rejected=%d quota_denied=%d completed=%d evicted=%d canceled=%d in_flight=%d retries=%d fault_aborts=%d repaired=%d repair_s=%s vtime=%s cost=%s\n",
				withFaults, st.Tenant, st.Tier, st.Submitted, st.Accepted, st.Rejected, st.QuotaDenied,
				st.Completed, st.Evicted, st.Canceled, st.InFlight, st.Retries, st.FaultAborts, st.RepairedTasks,
				strconv.FormatFloat(st.RepairSeconds, 'g', -1, 64),
				strconv.FormatFloat(st.VirtualSeconds, 'g', -1, 64),
				strconv.FormatFloat(st.CostUnits, 'g', -1, 64))
		}
	}
	compareGolden(t, "tenant_stats.golden", []byte(b.String()))
}
