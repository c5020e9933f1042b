package grid

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/sim"
)

func tracedRun(t *testing.T) (*obs.Recorder, *Metrics) {
	t.Helper()
	rec := &obs.Recorder{}
	cfg := DefaultConfig()
	cfg.Tracer = rec
	tc, _ := DefaultToolchain()
	reg, _ := BuildGrid(DefaultGridSpec())
	mm, _ := rms.NewMatchmaker(reg, tc)
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(sim.NewRNG(21), DefaultWorkload(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitWorkload(gen, "trace"); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rec, m
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	rec, m := tracedRun(t)
	events := rec.Events()
	counts := map[obs.Kind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	if counts[obs.KindQueued] != 20 || counts[obs.KindDispatch] != 20 || counts[obs.KindComplete] != 20 {
		t.Errorf("event counts = %v, want 20 of each lifecycle kind", counts)
	}
	if m.Completed != 20 {
		t.Errorf("completed = %d", m.Completed)
	}
	// Causality: each task's queued ≤ dispatch ≤ complete.
	dispatch := map[string]sim.Time{}
	queued := map[string]sim.Time{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindQueued:
			queued[ev.TaskID.String()] = ev.Time
		case obs.KindDispatch:
			dispatch[ev.TaskID.String()] = ev.Time
			if ev.Node == 0 || ev.Element == 0 {
				t.Error("dispatch without placement info")
			}
		case obs.KindComplete:
			if ev.Time < dispatch[ev.TaskID.String()] || dispatch[ev.TaskID.String()] < queued[ev.TaskID.String()] {
				t.Errorf("causality violated for %s", ev.TaskID)
			}
		}
	}
}

func TestRecorderCSV(t *testing.T) {
	rec, _ := tracedRun(t)
	var buf bytes.Buffer
	if err := writeTraceCSV(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_s,kind,task,node,element" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+len(rec.Events()) {
		t.Errorf("csv rows = %d, want %d", len(lines)-1, len(rec.Events()))
	}
}

// writeTraceCSV renders recorded events through the streaming CSV sink.
func writeTraceCSV(w io.Writer, events []obs.Event) error {
	sink := obs.NewCSV(w)
	for _, ev := range events {
		sink.Emit(ev)
	}
	return sink.Close()
}

func TestRecorderGantt(t *testing.T) {
	rec, _ := tracedRun(t)
	var buf bytes.Buffer
	if err := rec.Gantt(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") {
		t.Errorf("gantt has no bars:\n%s", out)
	}
	if !strings.Contains(out, "Node0/GPP0") && !strings.Contains(out, "Node2/RPE0") {
		t.Errorf("gantt lanes missing:\n%s", out)
	}
	if err := rec.Gantt(&buf, 2); err == nil {
		t.Error("tiny width accepted")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *obs.Recorder
	rec.Emit(obs.Event{}) // must not panic
	if rec.Events() != nil {
		t.Error("nil recorder should have no events")
	}
}

func TestRecorderEmptyGantt(t *testing.T) {
	rec := &obs.Recorder{}
	var buf bytes.Buffer
	if err := rec.Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("empty gantt = %q", buf.String())
	}
}
