package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files from the current model")

// goldenFaultScenario is a small, fully pinned faulty run: 8 tasks on
// the default 5-node grid under a moderate fault spec, with gauge
// sampling on. Every model change that shifts any event time, placement,
// fault strike, retry, or gauge shows up as a diff against a checked-in
// golden file. The given sinks observe the run.
//
// The scenario uses DefaultConfig (reconfig-aware) on DefaultWorkload;
// the markers below feed the coverage matrix (COVERAGE.md, cmd/covgen).
//
//scenario:golden strategy=reconfig-aware regime=moderate workload=default file=testdata/fault_trace.csv
//scenario:golden strategy=reconfig-aware regime=moderate workload=default file=testdata/chrome_trace.json
//scenario:golden strategy=reconfig-aware regime=moderate workload=default file=testdata/timeline.csv
func goldenFaultScenario(sinks ...obs.TraceSink) ScenarioSpec {
	f := faults.Default()
	f.CrashRate = 0.05
	f.MeanOutageSeconds = 12
	f.SEURate = 0.05
	f.LinkFaultRate = 0.03
	f.MeanLinkFaultSeconds = 15
	f.LeaseTTLSeconds = 2
	f.Retry = faults.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 8}
	cfg := DefaultConfig()
	cfg.SampleEverySeconds = 2
	cfg.Tracer = obs.Multi(sinks...)
	return ScenarioSpec{
		Seed:     42,
		Config:   cfg,
		Grid:     DefaultGridSpec(),
		Workload: DefaultWorkload(8, 0.5),
		Faults:   &f,
	}
}

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
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Errorf("output diverges from %s at line %d (got %d bytes, want %d); run with -update if intentional",
			path, line, len(got), len(want))
	}
}

// TestGoldenFaultTrace replays the pinned scenario and compares the full
// trace stream byte-for-byte against testdata/fault_trace.csv.
func TestGoldenFaultTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewCSV(&buf)
	m, err := RunScenario(context.Background(), goldenFaultScenario(sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fault_trace.csv", buf.Bytes())
	// The scenario must stay interesting: a refactor that silently
	// disables fault injection would otherwise "pass" with a boring trace.
	if m.NodeCrashes == 0 && m.SEUFaults == 0 && m.LinkFaults == 0 {
		t.Errorf("golden scenario injected no faults: %s", m)
	}
	if m.Completed == 0 {
		t.Error("golden scenario completed nothing")
	}
	checkConservation(t, m, m.Submitted)
}

// TestGoldenChromeTrace pins the Chrome trace-event document the same
// scenario streams out: record order, pid/tid assignment, span pairing,
// and counter tracks all participate in the byte comparison. The
// document must also stay valid JSON in the object format.
func TestGoldenChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewChrome(&buf)
	if _, err := RunScenario(context.Background(), goldenFaultScenario(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("golden chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("golden chrome trace is empty")
	}
	compareGolden(t, "chrome_trace.json", buf.Bytes())
}

// TestGoldenTimelineCSV pins the sampled gauge series: queue depth,
// per-kind utilization, fabric occupancy, outages, and energy, one row
// per 2-second sampling tick plus the end-of-run closing sample.
func TestGoldenTimelineCSV(t *testing.T) {
	tl := obs.NewTimeline()
	m, err := RunScenario(context.Background(), goldenFaultScenario(tl))
	if err != nil {
		t.Fatal(err)
	}
	samples := tl.Samples()
	if len(samples) < 2 {
		t.Fatalf("sampling produced %d samples", len(samples))
	}
	final := samples[len(samples)-1]
	if final.Completed != m.Completed {
		t.Errorf("final sample completed=%d, metrics say %d", final.Completed, m.Completed)
	}
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "timeline.csv", buf.Bytes())
}
