package controlplane

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// BenchmarkControlPlane measures the in-process cost of the full
// submit/execute/drain path under faults: admission (token bucket, jss
// validation, cost quote), per-tenant matchmaking, the fault/retry
// window, and MTTR accounting. It reports the model's own counters as
// custom metrics, so the perf-regression gate also pins the control
// plane's semantics: any drift in completions or repair totals at a
// fixed seed is a model change, not noise.
func BenchmarkControlPlane(b *testing.B) {
	b.ReportAllocs()
	var completed, faultAborts, repairSeconds float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Shards = 1
		cfg.Seed = 11
		cfg.Faults = faults.Spec{
			CrashRate:         0.05,
			MeanOutageSeconds: 5,
			SEURate:           0.05,
			HorizonSeconds:    500,
		}
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(99)
		scenarios := []string{"software", "softcore", "userhw"}
		for t := 0; t < 8; t++ {
			tenant := fmt.Sprintf("bench-t%02d", t)
			for j := 0; j < 25; j++ {
				ts := &TaskSpec{
					ID:       fmt.Sprintf("task-%02d-%03d", t, j),
					WorkMI:   float64(100 + rng.Intn(5000)),
					Parallel: rng.Float64(),
					Scenario: scenarios[rng.Intn(len(scenarios))],
				}
				if ts.Scenario == "userhw" {
					ts.Design = "aes128"
				}
				s.Do(Request{Op: OpSubmit, Tenant: tenant, Tier: "virtualized", Task: ts})
			}
		}
		resp := s.Do(Request{Op: OpDrain})
		if !resp.OK {
			b.Fatalf("drain failed: %s", resp.Error)
		}
		stats := s.Do(Request{Op: OpStats})
		if !stats.OK {
			b.Fatalf("stats failed: %s", stats.Error)
		}
		completed, faultAborts, repairSeconds = 0, 0, 0
		for _, st := range stats.Tenants {
			completed += float64(st.Completed)
			faultAborts += float64(st.FaultAborts)
			repairSeconds += st.RepairSeconds
		}
		s.Shutdown()
	}
	b.ReportMetric(completed, "completed")
	b.ReportMetric(faultAborts, "fault-aborts")
	b.ReportMetric(repairSeconds, "repair-s")
}

// BenchmarkWireDecode measures the wire decode layer as a connection
// runs it, one warm decoder decoding the same line again: a submit of
// the rmsd task mix and a status, which the one-pass path reads, and a
// line with an escape, which goes to encoding/json.
func BenchmarkWireDecode(b *testing.B) {
	submit, err := json.Marshal(Request{Op: OpSubmit, Tenant: "tenant-00042", Tier: "virtualized",
		Task: &TaskSpec{ID: "task-00117", WorkMI: 83.51302845511407, Parallel: 0.6046602879796196, Scenario: "userhw", Design: "aes128"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, line string }{
		{"submit", string(submit)},
		{"status", `{"op":"status","tenant":"tenant-00042","task_id":"task-00117"}`},
		{"fallback", `{"op":"status","tenant":"tenant-00042","task_id":"task\u002d00117"}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			line := []byte(bc.line)
			d := new(wireDecoder)
			if err := d.decodeRequest(line, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.decodeRequest(line, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
