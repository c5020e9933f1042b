package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"

	"repro/internal/report"
	"repro/internal/sim"
)

// Timeline is the interval-series sink: it retains the periodic gauge
// Samples the engine takes (queue depth, per-kind utilization, fabric
// occupancy, outages, energy draw) and folds them into virtual-time
// series — time-weighted means, maxima, histograms — exported through
// internal/report. Events are only counted per kind, so memory grows with
// the number of samples, not the number of tasks. Enable sampling via
// Config.SampleEverySeconds; without it a Timeline stays empty.
//
// Construct with NewTimeline; the zero value is also usable.
type Timeline struct {
	mu      sync.Mutex
	samples []Sample     // guarded by mu
	counts  map[Kind]int // guarded by mu
}

// NewTimeline returns an empty timeline sink.
func NewTimeline() *Timeline {
	return &Timeline{counts: map[Kind]int{}}
}

// Emit counts the event per kind; the full event is not retained.
func (t *Timeline) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counts == nil {
		t.counts = map[Kind]int{}
	}
	t.counts[ev.Kind]++
	t.mu.Unlock()
}

// Sample retains one gauge snapshot.
func (t *Timeline) Sample(s Sample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

// Flush is a no-op: a Timeline holds everything in memory.
func (t *Timeline) Flush() error { return nil }

// Close is a no-op; the timeline's contents stay readable.
func (t *Timeline) Close() error { return nil }

// Samples returns the retained snapshots in emission order.
func (t *Timeline) Samples() []Sample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Sample(nil), t.samples...)
}

// EventCount returns how many events of one kind were emitted.
func (t *Timeline) EventCount(k Kind) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[k]
}

// timelineHeader is the WriteCSV column layout.
const timelineHeader = "time_s,queue,retry_backlog,running,util_gpp,util_fpga,util_gpu," +
	"fabric_regions,fabric_slices_used,fabric_slices_total,nodes_down,completed,energy_j\n"

// WriteCSV emits the sampled series as CSV, one row per sample.
func (t *Timeline) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(timelineHeader); err != nil {
		return err
	}
	var row []byte
	for _, s := range t.Samples() {
		row = strconv.AppendFloat(row[:0], float64(s.Time), 'g', -1, 64)
		for _, n := range [...]int{s.QueueDepth, s.RetryBacklog, s.Running} {
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(n), 10)
		}
		for _, f := range [...]float64{s.UtilGPP, s.UtilFPGA, s.UtilGPU} {
			row = append(row, ',')
			row = strconv.AppendFloat(row, f, 'g', -1, 64)
		}
		for _, n := range [...]int{s.FabricRegions, s.FabricSlicesUsed, s.FabricSlicesTotal, s.NodesDown, s.Completed} {
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(n), 10)
		}
		row = append(row, ',')
		row = strconv.AppendFloat(row, s.EnergyJoules, 'g', -1, 64)
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// timelineSeries enumerates the summarized series in display order.
var timelineSeries = []struct {
	name string
	get  func(Sample) float64
}{
	{"queue depth", func(s Sample) float64 { return float64(s.QueueDepth) }},
	{"retry backlog", func(s Sample) float64 { return float64(s.RetryBacklog) }},
	{"running", func(s Sample) float64 { return float64(s.Running) }},
	{"util gpp", func(s Sample) float64 { return s.UtilGPP }},
	{"util fpga", func(s Sample) float64 { return s.UtilFPGA }},
	{"util gpu", func(s Sample) float64 { return s.UtilGPU }},
	{"fabric occupancy", func(s Sample) float64 { return s.FabricOccupancy() }},
	{"nodes down", func(s Sample) float64 { return float64(s.NodesDown) }},
	{"energy (J)", func(s Sample) float64 { return s.EnergyJoules }},
}

// Summary renders the series as a report table: the time-weighted mean
// over the sampled window (treating each series as piecewise-constant
// between samples), the maximum, and the final value.
func (t *Timeline) Summary(title string) *report.Table {
	tb := report.NewTable(title, "series", "mean", "max", "final")
	samples := t.Samples()
	if len(samples) == 0 {
		return tb
	}
	end := samples[len(samples)-1].Time
	for _, sp := range timelineSeries {
		var w sim.TimeWeighted
		for _, s := range samples {
			w.Set(s.Time, sp.get(s))
		}
		tb.AddRow(sp.name, w.MeanOver(end), w.Max(), sp.get(samples[len(samples)-1]))
	}
	return tb
}
