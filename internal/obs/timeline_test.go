package obs

import (
	"bytes"
	"strings"
	"testing"
)

func timelineFixture() *Timeline {
	tl := NewTimeline()
	tl.Emit(Event{Kind: KindDispatch})
	tl.Emit(Event{Kind: KindDispatch})
	tl.Emit(Event{Kind: KindRetry})
	tl.Sample(Sample{Time: 0, QueueDepth: 4, Running: 1, UtilGPP: 0.25,
		FabricSlicesUsed: 0, FabricSlicesTotal: 64, EnergyJoules: 0})
	tl.Sample(Sample{Time: 1, QueueDepth: 2, Running: 3, UtilGPP: 0.75,
		FabricSlicesUsed: 16, FabricSlicesTotal: 64, EnergyJoules: 5})
	tl.Sample(Sample{Time: 2, QueueDepth: 0, Running: 0, UtilGPP: 0,
		FabricSlicesUsed: 0, FabricSlicesTotal: 64, Completed: 5, EnergyJoules: 9})
	return tl
}

func TestTimelineCountsAndSamples(t *testing.T) {
	tl := timelineFixture()
	if got := tl.EventCount(KindDispatch); got != 2 {
		t.Errorf("dispatch count = %d", got)
	}
	if got := tl.EventCount(KindLost); got != 0 {
		t.Errorf("lost count = %d", got)
	}
	if got := len(tl.Samples()); got != 3 {
		t.Errorf("samples = %d", got)
	}
}

func TestTimelineWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := timelineFixture().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != strings.TrimSuffix(timelineHeader, "\n") {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want header + 3 samples", len(lines)-1)
	}
	if lines[2] != "1,2,0,3,0.75,0,0,0,16,64,0,0,5" {
		t.Errorf("sample row = %q", lines[2])
	}
	cols := strings.Count(timelineHeader, ",") + 1
	for i, line := range lines {
		if strings.Count(line, ",")+1 != cols {
			t.Errorf("line %d has %d columns, want %d: %q", i, strings.Count(line, ",")+1, cols, line)
		}
	}
}

func TestTimelineSummary(t *testing.T) {
	tb := timelineFixture().Summary("obs demo")
	out := tb.String()
	for _, series := range []string{"queue depth", "util gpp", "fabric occupancy", "energy (J)"} {
		if !strings.Contains(out, series) {
			t.Errorf("summary missing series %q:\n%s", series, out)
		}
	}
	if tb.Rows() != len(timelineSeries) {
		t.Errorf("summary rows = %d, want %d", tb.Rows(), len(timelineSeries))
	}
	// Queue depth is piecewise-constant 4 over [0,1) and 2 over [1,2):
	// time-weighted mean 3, max 4, final 0.
	var queueLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "queue depth") {
			queueLine = line
		}
	}
	fields := strings.Fields(queueLine)
	if len(fields) < 5 || fields[2] != "3" || fields[3] != "4" || fields[4] != "0" {
		t.Errorf("queue depth row = %q, want mean 3, max 4, final 0", queueLine)
	}
	empty := NewTimeline().Summary("empty")
	if empty.Rows() != 0 {
		t.Errorf("empty timeline summary has %d rows", empty.Rows())
	}
}
