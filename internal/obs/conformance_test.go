// Conformance suite: one shared table of behavioral requirements run
// against every TraceSink implementation in this package. The contract
// under test is the one in the package comment — virtual-time ordering
// of engine emissions, nil-receiver safety, concurrent-use safety,
// flush/close semantics, and write-error latching.
package obs_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"io"
	"strconv"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sinkCase is one implementation under conformance test.
type sinkCase struct {
	name string
	// make builds a fresh sink; w receives its output (ignored by
	// in-memory sinks).
	make func(w io.Writer) obs.TraceSink
	// nilVal returns a typed-nil receiver, or nil for value types that
	// have no nil receiver.
	nilVal func() obs.TraceSink
	// quietAfterClose marks streaming sinks whose output must not grow
	// once Close has run.
	quietAfterClose bool
}

func sinkCases() []sinkCase {
	return []sinkCase{
		{
			name:   "recorder",
			make:   func(io.Writer) obs.TraceSink { return &obs.Recorder{} },
			nilVal: func() obs.TraceSink { return (*obs.Recorder)(nil) },
		},
		{
			name:            "csv",
			make:            func(w io.Writer) obs.TraceSink { return obs.NewCSV(w) },
			nilVal:          func() obs.TraceSink { return (*obs.CSV)(nil) },
			quietAfterClose: true,
		},
		{
			name:            "chrome",
			make:            func(w io.Writer) obs.TraceSink { return obs.NewChrome(w) },
			nilVal:          func() obs.TraceSink { return (*obs.Chrome)(nil) },
			quietAfterClose: true,
		},
		{
			name:   "timeline",
			make:   func(io.Writer) obs.TraceSink { return obs.NewTimeline() },
			nilVal: func() obs.TraceSink { return (*obs.Timeline)(nil) },
		},
		{
			name: "noop",
			make: func(io.Writer) obs.TraceSink { return obs.Noop{} },
		},
		{
			name:            "multi",
			make:            func(w io.Writer) obs.TraceSink { return obs.Multi(&obs.Recorder{}, obs.NewCSV(w)) },
			quietAfterClose: true,
		},
		{
			name:            "zero-csv",
			make:            func(io.Writer) obs.TraceSink { return &obs.CSV{} },
			quietAfterClose: true,
		},
		{
			name:            "zero-chrome",
			make:            func(io.Writer) obs.TraceSink { return &obs.Chrome{} },
			quietAfterClose: true,
		},
		{
			name: "zero-timeline",
			make: func(io.Writer) obs.TraceSink { return &obs.Timeline{} },
		},
	}
}

// orderChecker is a TraceSink that verifies the ordering leg of the
// contract: within one engine, Emit and Sample arrive in non-decreasing
// virtual time.
type orderChecker struct {
	mu        sync.Mutex
	last      sim.Time // guarded by mu
	events    int      // guarded by mu
	samples   int      // guarded by mu
	regressed bool     // guarded by mu
}

func (o *orderChecker) observe(t sim.Time) {
	o.mu.Lock()
	if t < o.last {
		o.regressed = true
	}
	o.last = t
	o.mu.Unlock()
}

func (o *orderChecker) Emit(ev obs.Event) {
	o.observe(ev.Time)
	o.mu.Lock()
	o.events++
	o.mu.Unlock()
}

func (o *orderChecker) Sample(s obs.Sample) {
	o.observe(s.Time)
	o.mu.Lock()
	o.samples++
	o.mu.Unlock()
}

func (o *orderChecker) Flush() error { return nil }
func (o *orderChecker) Close() error { return nil }

// observedScenario is a pinned moderately-faulty run with sampling on;
// every conformance case drives its sink through it.
func observedScenario(sinks ...obs.TraceSink) grid.ScenarioSpec {
	f := faults.Default()
	f.CrashRate = 0.05
	f.MeanOutageSeconds = 10
	f.SEURate = 0.04
	f.LinkFaultRate = 0.03
	f.MeanLinkFaultSeconds = 12
	f.LeaseTTLSeconds = 2
	f.Retry = faults.RetryPolicy{MaxRetries: 5, BackoffSeconds: 0.5, BackoffCapSeconds: 6}
	cfg := grid.DefaultConfig()
	cfg.SampleEverySeconds = 1
	cfg.Tracer = obs.Multi(sinks...)
	return grid.ScenarioSpec{
		Seed:     7,
		Config:   cfg,
		Grid:     grid.DefaultGridSpec(),
		Workload: grid.DefaultWorkload(12, 0.8),
		Faults:   &f,
	}
}

// TestSinkConformanceEngineRun drives a real faulty engine through every
// sink implementation alongside an ordering checker: the run must
// produce both events and samples, deliver them in virtual-time order,
// and leave the sink flushable and closable without error.
func TestSinkConformanceEngineRun(t *testing.T) {
	for _, tc := range sinkCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			sink := tc.make(&buf)
			check := &orderChecker{}
			m, err := grid.RunScenario(context.Background(), observedScenario(sink, check))
			if err != nil {
				t.Fatal(err)
			}
			if m.Submitted == 0 {
				t.Fatal("scenario submitted nothing")
			}
			if check.events == 0 {
				t.Error("engine emitted no events")
			}
			if check.samples == 0 {
				t.Error("engine took no samples with SampleEverySeconds=1")
			}
			if check.regressed {
				t.Error("virtual time regressed across emissions")
			}
			if err := sink.Flush(); err != nil {
				t.Errorf("Flush after clean run: %v", err)
			}
			if err := sink.Close(); err != nil {
				t.Errorf("Close after clean run: %v", err)
			}
		})
	}
}

// TestSinkConformanceNilReceiver: every pointer sink must tolerate a
// typed-nil receiver on all four methods — optional sinks get threaded
// through without guards.
func TestSinkConformanceNilReceiver(t *testing.T) {
	for _, tc := range sinkCases() {
		tc := tc
		if tc.nilVal == nil {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			s := tc.nilVal()
			s.Emit(obs.Event{Kind: obs.KindQueued, TaskID: obs.Str("t")})
			s.Sample(obs.Sample{Time: 1})
			if err := s.Flush(); err != nil {
				t.Errorf("nil Flush = %v", err)
			}
			if err := s.Close(); err != nil {
				t.Errorf("nil Close = %v", err)
			}
		})
	}
}

// TestSinkConformanceConcurrent hammers each sink from several
// goroutines, as concurrent sweep replicas sharing one sink do. Run
// under -race this proves the concurrency-safety leg of the contract.
func TestSinkConformanceConcurrent(t *testing.T) {
	const goroutines, perG = 8, 200
	for _, tc := range sinkCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			sink := tc.make(&buf)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						sink.Emit(obs.Event{
							Time:   sim.Time(i),
							Kind:   obs.KindDispatch,
							TaskID: obs.Str("task"),
							Node:   obs.Str("NodeX"),
						})
						if i%10 == 0 {
							sink.Sample(obs.Sample{Time: sim.Time(i), QueueDepth: g})
						}
					}
					if err := sink.Flush(); err != nil {
						t.Errorf("concurrent Flush: %v", err)
					}
				}()
			}
			wg.Wait()
			if err := sink.Close(); err != nil {
				t.Errorf("Close after concurrent use: %v", err)
			}
		})
	}
}

// TestSinkConformanceCloseSemantics: Close must be idempotent, Flush
// must stay callable after Close, and streaming sinks must stop writing
// once closed.
func TestSinkConformanceCloseSemantics(t *testing.T) {
	for _, tc := range sinkCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			sink := tc.make(&buf)
			sink.Emit(obs.Event{Time: 1, Kind: obs.KindQueued, TaskID: obs.Str("a")})
			if err := sink.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			closedLen := buf.Len()
			if err := sink.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if buf.Len() != closedLen {
				t.Errorf("second Close grew output by %d bytes", buf.Len()-closedLen)
			}
			sink.Emit(obs.Event{Time: 2, Kind: obs.KindQueued, TaskID: obs.Str("b")})
			sink.Sample(obs.Sample{Time: 2})
			if err := sink.Flush(); err != nil {
				t.Errorf("Flush after Close: %v", err)
			}
			if tc.quietAfterClose && buf.Len() != closedLen {
				t.Errorf("Emit after Close wrote %d bytes", buf.Len()-closedLen)
			}
		})
	}
}

// failAfterWriter accepts n bytes then fails every write.
type failAfterWriter struct {
	n   int
	err error
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSinkConformanceWriteError: a failing io.Writer must surface on
// Flush, latch (Close and Err keep returning it), and silence the sink
// rather than panic or spam further writes.
func TestSinkConformanceWriteError(t *testing.T) {
	sentinel := errors.New("disk full")
	cases := []struct {
		name string
		make func(w io.Writer) obs.TraceSink
		err  func(s obs.TraceSink) error
	}{
		{"csv", func(w io.Writer) obs.TraceSink { return obs.NewCSV(w) },
			func(s obs.TraceSink) error { return s.(*obs.CSV).Err() }},
		{"chrome", func(w io.Writer) obs.TraceSink { return obs.NewChrome(w) },
			func(s obs.TraceSink) error { return s.(*obs.Chrome).Err() }},
		{"multi", func(w io.Writer) obs.TraceSink { return obs.Multi(&obs.Recorder{}, obs.NewCSV(w)) },
			nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fw := &failAfterWriter{n: 16, err: sentinel}
			sink := tc.make(fw)
			// Push well past any internal buffer so the error latches
			// during Emit, not only at Flush.
			for i := 0; i < 500; i++ {
				sink.Emit(obs.Event{Time: sim.Time(i), Kind: obs.KindDispatch, TaskID: obs.Str("wl-0"), Node: obs.Str("Node0"), Element: obs.Str("GPP0")})
			}
			if err := sink.Flush(); !errors.Is(err, sentinel) {
				t.Errorf("Flush = %v, want the writer's error", err)
			}
			if err := sink.Close(); !errors.Is(err, sentinel) {
				t.Errorf("Close = %v, want the latched error", err)
			}
			if err := sink.Close(); !errors.Is(err, sentinel) {
				t.Errorf("repeat Close = %v, want the latched error", err)
			}
			if tc.err != nil {
				if err := tc.err(sink); !errors.Is(err, sentinel) {
					t.Errorf("Err() = %v, want the latched error", err)
				}
			}
		})
	}
}

// TestStreamingCSVMatchesRecorder feeds one engine run to a Recorder and
// a streaming CSV sink simultaneously: the streamed bytes must equal
// encoding/csv's rendering of the recorded events exactly, so the sink
// is interchangeable with any standard CSV writer downstream.
func TestStreamingCSVMatchesRecorder(t *testing.T) {
	rec := &obs.Recorder{}
	var streamed bytes.Buffer
	csvSink := obs.NewCSV(&streamed)
	if _, err := grid.RunScenario(context.Background(), observedScenario(rec, csvSink)); err != nil {
		t.Fatal(err)
	}
	if err := csvSink.Close(); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := referenceCSV(&batch, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("run produced no events")
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Errorf("streamed CSV (%d bytes) differs from encoding/csv (%d bytes)",
			streamed.Len(), batch.Len())
	}
	// Quoting equivalence on hostile field values, empty-trace header
	// equivalence included.
	hostile := []obs.Event{
		{},
		{Time: 1.5, Kind: obs.KindQueued, TaskID: obs.Str(`comma,task`), Node: obs.Str(`quote"node`), Element: obs.Str("multi\nline")},
		{Time: 2, Kind: obs.KindDispatch, TaskID: obs.Str("cr\rreturn"), Node: obs.Str("plain"), Element: obs.Str("")},
		// encoding/csv also quotes a leading Unicode space and the
		// field `\.`, but not an inner or trailing space.
		{Time: 3, Kind: obs.KindComplete, TaskID: obs.Str(" t1"), Node: obs.Str("\tnode"), Element: obs.Str("\u00a0elem")},
		{Time: 4, Kind: obs.KindFail, TaskID: obs.Str(`\.`), Node: obs.Str(`\.x`), Element: obs.Str("in ner ")},
	}
	rec2 := &obs.Recorder{}
	var s2, b2 bytes.Buffer
	c2 := obs.NewCSV(&s2)
	for _, ev := range hostile {
		rec2.Emit(ev)
		c2.Emit(ev)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := referenceCSV(&b2, rec2.Events()); err != nil {
		t.Fatal(err)
	}
	if s2.String() != b2.String() {
		t.Errorf("hostile-field quoting differs:\nstreamed: %q\nbatch:    %q", s2.String(), b2.String())
	}
}

// referenceCSV renders events through encoding/csv with the CSV sink's
// header and columns (time_s,kind,task,node,element).
func referenceCSV(w io.Writer, events []obs.Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "kind", "task", "node", "element"}); err != nil {
		return err
	}
	for _, ev := range events {
		rec := []string{
			strconv.FormatFloat(float64(ev.Time), 'g', -1, 64),
			string(ev.Kind), ev.TaskID.String(), ev.Node.String(), ev.Element.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TestMultiSemantics pins Multi's composition rules: nils drop out, the
// degenerate arities collapse, fan-out reaches every member, and the
// first member error wins.
func TestMultiSemantics(t *testing.T) {
	if s := obs.Multi(); s != nil {
		t.Errorf("Multi() = %v, want nil", s)
	}
	if s := obs.Multi(nil, (*obs.Recorder)(nil)); s != nil {
		// A typed nil is still a non-nil interface; Multi keeps it, and
		// the nil-receiver safety of the sink makes that harmless.
		if _, ok := s.(*obs.Recorder); !ok {
			t.Errorf("Multi(nil, typed-nil) = %T, want the typed nil unwrapped", s)
		}
	}
	one := &obs.Recorder{}
	if s := obs.Multi(nil, one, nil); s != obs.TraceSink(one) {
		t.Errorf("Multi(one) = %v, want the sink unwrapped", s)
	}
	a, b := obs.NewTimeline(), obs.NewTimeline()
	m := obs.Multi(a, b)
	m.Emit(obs.Event{Kind: obs.KindQueued, TaskID: obs.Str("x")})
	m.Sample(obs.Sample{Time: 3})
	for i, tl := range []*obs.Timeline{a, b} {
		if tl.EventCount(obs.KindQueued) != 1 || len(tl.Samples()) != 1 {
			t.Errorf("member %d got %d events, %d samples; want 1 and 1", i, tl.EventCount(obs.KindQueued), len(tl.Samples()))
		}
	}
	if err := m.Flush(); err != nil {
		t.Errorf("Flush over healthy members = %v", err)
	}
	sentinel := errors.New("sink broke")
	bad := obs.NewCSV(&failAfterWriter{err: sentinel})
	bad.Emit(obs.Event{Kind: obs.KindQueued})
	mixed := obs.Multi(&obs.Recorder{}, bad, &obs.Recorder{})
	if err := mixed.Flush(); !errors.Is(err, sentinel) {
		t.Errorf("Flush = %v, want first member error", err)
	}
	if err := mixed.Close(); !errors.Is(err, sentinel) {
		t.Errorf("Close = %v, want first member error", err)
	}
}
