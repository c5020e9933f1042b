package controlplane

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// runTrace replays one seeded, deterministic request trace against a
// server with the given shard count and returns per-tenant completion
// logs, read from the trace's complete events, and counter snapshots.
// The server is paused for requests 200–399, so cancels in that window
// can find their task still queued.
func runTrace(t *testing.T, shards int, withFaults bool) (map[string][]string, []TenantStats) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.Seed = 9
	rec := &obs.Recorder{}
	cfg.Sink = rec
	if withFaults {
		cfg.Faults = faults.Spec{
			CrashRate:         0.05,
			MeanOutageSeconds: 5,
			SEURate:           0.05,
			HorizonSeconds:    500,
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	rng := sim.NewRNG(1234)
	tiers := []string{"full", "virtualized", "background"}
	scenarios := []string{"software", "softcore", "userhw"}
	submitted := map[string][]string{}
	for i := 0; i < 600; i++ {
		switch i {
		case 200:
			mustOK(t, s.Do(Request{Op: OpPause}))
		case 400:
			mustOK(t, s.Do(Request{Op: OpResume}))
		}
		tenant := fmt.Sprintf("t%02d", rng.Intn(16))
		ts := &TaskSpec{
			ID:       fmt.Sprintf("task-%04d", i),
			WorkMI:   float64(100 + rng.Intn(5000)),
			Parallel: rng.Float64(),
			Scenario: scenarios[rng.Intn(len(scenarios))],
		}
		if ts.Scenario == "userhw" {
			ts.Design = "aes128"
		}
		tier := tiers[int(tenantHash(tenant)%3)]
		s.Do(Request{Op: OpSubmit, Tenant: tenant, Tier: tier, Task: ts})
		submitted[tenant] = append(submitted[tenant], ts.ID)
		if rng.Intn(5) == 0 {
			// Cancel one of the tenant's tasks; often already terminal,
			// which must be equally deterministic.
			mine := submitted[tenant]
			s.Do(Request{Op: OpCancel, Tenant: tenant, TaskID: mine[rng.Intn(len(mine))]})
		}
	}
	mustOK(t, s.Do(Request{Op: OpDrain}))

	stats, err := s.StatsAll()
	if err != nil {
		t.Fatal(err)
	}
	// A tenant emits only under its shard's lock, so its events keep
	// their order in the shared recorder.
	done := make(map[string][]string, len(stats))
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindComplete {
			tenant := ev.Node.String()
			done[tenant] = append(done[tenant], ev.TaskID.String())
		}
	}
	return done, stats
}

// TestDifferentialShardCount pins the control plane's central
// determinism claim: the same seeded request trace produces identical
// per-tenant completion logs and counters whether the dispatcher runs
// one shard or many. Sharding buys throughput, never different answers.
//
//scenario:differential strategy=first-fit regime=none,moderate workload=control-plane
func TestDifferentialShardCount(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		name := "clean"
		if withFaults {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			done1, stats1 := runTrace(t, 1, withFaults)
			done5, stats5 := runTrace(t, 5, withFaults)
			if !reflect.DeepEqual(done1, done5) {
				for tenant, log1 := range done1 {
					if !reflect.DeepEqual(log1, done5[tenant]) {
						t.Errorf("tenant %s completion log diverges:\n shards=1: %v\n shards=5: %v", tenant, log1, done5[tenant])
					}
				}
				t.Fatal("completion sets differ between shard counts")
			}
			if !reflect.DeepEqual(stats1, stats5) {
				t.Fatalf("stats differ between shard counts:\n shards=1: %+v\n shards=5: %+v", stats1, stats5)
			}
			// Some cancels must find their task queued during the pause,
			// or the differential never compares a successful cancel.
			canceled := 0
			for _, st := range stats1 {
				canceled += st.Canceled
			}
			if canceled == 0 {
				t.Error("no cancel found its task queued; the paused window under-tests cancel")
			}
			if withFaults {
				// The faulty run must actually exercise retries/evictions
				// somewhere, or the differential proves less than claimed.
				retries, evicted := 0, 0
				for _, st := range stats1 {
					retries += st.Retries
					evicted += st.Evicted
				}
				if retries == 0 && evicted == 0 {
					t.Error("fault injection produced neither retries nor evictions; differential under-tests the fault path")
				}
			}
		})
	}
}

// TestTraceRepeatable pins that the very same configuration replayed
// twice is bit-identical — the weaker but foundational property.
func TestTraceRepeatable(t *testing.T) {
	doneA, statsA := runTrace(t, 3, true)
	doneB, statsB := runTrace(t, 3, true)
	if !reflect.DeepEqual(doneA, doneB) || !reflect.DeepEqual(statsA, statsB) {
		t.Fatal("same trace, same config, different outcome")
	}
}
