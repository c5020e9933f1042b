package grid

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sched"
)

// hostileFaults is a fault spec aggressive enough that every headline
// fault path (crash, SEU, link fault, expiry, retry) fires within a
// short workload window.
func hostileFaults() *faults.Spec {
	f := faults.Default()
	f.CrashRate = 0.08
	f.MeanOutageSeconds = 15
	f.SEURate = 0.1
	f.LinkFaultRate = 0.05
	f.MeanLinkFaultSeconds = 20
	f.PartitionShare = 0.5
	f.LeaseTTLSeconds = 2
	f.Retry = faults.RetryPolicy{MaxRetries: 4, BackoffSeconds: 0.5, BackoffCapSeconds: 10}
	return &f
}

// faultFingerprint extends the sweep fingerprint with every fault and
// recovery metric, so byte equality covers the whole surface.
func faultFingerprint(m *Metrics) string {
	var b strings.Builder
	b.WriteString(fingerprint(m))
	fmt.Fprintf(&b, "submitted=%d failures=%d retries=%d lost=%d expiries=%d\n",
		m.Submitted, m.Failures(), m.Retries, m.TasksLost, m.LeaseExpiries)
	fmt.Fprintf(&b, "crashes=%d recoveries=%d seu=%d link=%d\n",
		m.NodeCrashes, m.NodeRecoveries, m.SEUFaults, m.LinkFaults)
	fmt.Fprintf(&b, "mttr=%v down=%v window=%v nodes=%d avail=%v\n",
		m.MTTR, m.DownSeconds, m.WindowSeconds, m.Nodes, m.Availability())
	return b.String()
}

func faultScenario(rec *obs.Recorder) ScenarioSpec {
	cfg := DefaultConfig()
	cfg.Tracer = rec
	return ScenarioSpec{
		Seed:     99,
		Config:   cfg,
		Grid:     DefaultGridSpec(),
		Workload: DefaultWorkload(60, 1),
		Faults:   hostileFaults(),
	}
}

// TestFaultScenarioReplaysByteIdentically is the determinism contract
// extended to faults: identical seed + FaultSpec must reproduce the
// exact trace event stream and every metric, bit for bit.
//
//scenario:differential strategy=reconfig-aware regime=hostile workload=default
func TestFaultScenarioReplaysByteIdentically(t *testing.T) {
	run := func() (*Metrics, []byte) {
		rec := &obs.Recorder{}
		m, err := RunScenario(context.Background(), faultScenario(rec))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeTraceCSV(&buf, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return m, buf.Bytes()
	}
	m1, trace1 := run()
	m2, trace2 := run()
	if !bytes.Equal(trace1, trace2) {
		t.Error("same seed+FaultSpec produced different trace streams")
	}
	if faultFingerprint(m1) != faultFingerprint(m2) {
		t.Errorf("same seed+FaultSpec produced different metrics:\n%s\nvs\n%s",
			faultFingerprint(m1), faultFingerprint(m2))
	}
	// The spec must actually have exercised the fault machinery, or this
	// test proves nothing.
	if m1.NodeCrashes == 0 || m1.SEUFaults == 0 || m1.LinkFaults == 0 || m1.Retries == 0 {
		t.Errorf("hostile spec too tame: %s", faultFingerprint(m1))
	}
	if m1.Completed == 0 {
		t.Error("nothing completed under faults")
	}
}

// faultSweepSpec builds a 2-strategy × nReps fault sweep; each point
// gets its own Recorder so per-point traces can be compared across
// worker counts (one replica per point owns the recorder exclusively).
func faultSweepSpec(t *testing.T, workers, reps int, withTracers bool) (SweepSpec, []*obs.Recorder) {
	t.Helper()
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	var recs []*obs.Recorder
	var points []SweepPoint
	for _, name := range []string{"reconfig-aware", "first-fit"} {
		strat, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Strategy = strat
		if withTracers {
			rec := &obs.Recorder{}
			recs = append(recs, rec)
			cfg.Tracer = rec
		}
		points = append(points, SweepPoint{
			Name:     name,
			Config:   cfg,
			Grid:     DefaultGridSpec(),
			Workload: DefaultWorkload(40, 1),
			Faults:   hostileFaults(),
		})
	}
	return SweepSpec{
		Points:       points,
		BaseSeed:     7,
		Replications: reps,
		Workers:      workers,
		Toolchain:    tc,
	}, recs
}

// TestFaultSweepWorkerCountIndependence: workers=1 ≡ workers=N must
// still hold with fault injection enabled — every replica derives its
// fault schedule from its own seed, never from scheduling order.
func TestFaultSweepWorkerCountIndependence(t *testing.T) {
	spec1, _ := faultSweepSpec(t, 1, 4, false)
	serial, err := Sweep(context.Background(), spec1)
	if err != nil {
		t.Fatal(err)
	}
	specN, _ := faultSweepSpec(t, 8, 4, false)
	parallel, err := Sweep(context.Background(), specN)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Replicas) != 8 || len(parallel.Replicas) != 8 {
		t.Fatalf("replica counts: %d vs %d", len(serial.Replicas), len(parallel.Replicas))
	}
	sawFaults := false
	for i := range serial.Replicas {
		s, p := serial.Replicas[i], parallel.Replicas[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("replica %d errors: serial=%v parallel=%v", i, s.Err, p.Err)
		}
		if faultFingerprint(s.Metrics) != faultFingerprint(p.Metrics) {
			t.Errorf("replica %d (%s seed %#x) differs across worker counts:\n%s\nvs\n%s",
				i, s.Replica.Name, s.Replica.Seed, faultFingerprint(s.Metrics), faultFingerprint(p.Metrics))
		}
		if s.Metrics.NodeCrashes > 0 || s.Metrics.SEUFaults > 0 {
			sawFaults = true
		}
	}
	if !sawFaults {
		t.Error("no replica saw any fault; the test exercises nothing")
	}
}

// TestFaultSweepTraceStreamsMatchAcrossWorkers compares the byte-exact
// trace streams: with one replica per point, each point's Recorder is
// owned by exactly one replica, so its CSV must not depend on the
// worker count.
func TestFaultSweepTraceStreamsMatchAcrossWorkers(t *testing.T) {
	csvs := func(workers int) [][]byte {
		spec, recs := faultSweepSpec(t, workers, 1, true)
		if _, err := Sweep(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(recs))
		for i, rec := range recs {
			var buf bytes.Buffer
			if err := writeTraceCSV(&buf, rec.Events()); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
			if len(rec.Events()) == 0 {
				t.Fatalf("point %d recorded no events", i)
			}
		}
		return out
	}
	serial := csvs(1)
	parallel := csvs(4)
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("point %d trace stream differs between workers=1 and workers=4", i)
		}
	}
}
