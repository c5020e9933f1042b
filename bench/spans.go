package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanLog keeps the spans of a traced run in memory and writes them when
// the run ends. A span is recorded at each layer boundary the benchmark
// crosses; nested spans on one goroutine are opened and closed through
// begin/end, whose stack gives each span its parent and lets the log
// charge a child's time against its parent's self time. Spans finished on
// another goroutine (a wire response read by a connection reader) arrive
// complete through add.
//
// Every span counts toward its layer's totals, but only the first
// spansPerLayer of each layer are kept for the trace file, so memory stays
// bounded however many events a run fires.
type spanLog struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int64
	stack  []openSpan
	kept   []span
	layers map[string]*layerTotals
}

const spansPerLayer = 2000

type span struct {
	ID, Parent int64
	Layer      string
	Name       string
	Req        int64 // request (task) the span served, 0 when none
	Start, End int64 // ns since the log's epoch
}

type openSpan struct {
	span
	childNs int64
}

type layerTotals struct {
	count, kept     int
	totalNs, selfNs int64
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), layers: map[string]*layerTotals{}}
}

// now is the log's clock: nanoseconds since its epoch.
func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span at time t under the innermost open span and returns
// its ID.
func (l *spanLog) begin(layer, name string, req, t int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	var parent int64
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].ID
	}
	l.stack = append(l.stack, openSpan{span: span{ID: l.nextID, Parent: parent, Layer: layer, Name: name, Req: req, Start: t}})
	return l.nextID
}

// end closes the innermost open span, which must be id, at time t and
// returns its duration.
func (l *spanLog) end(id, t int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.stack)
	if n == 0 || l.stack[n-1].ID != id {
		panic(fmt.Sprintf("spanLog: end(%d) does not close the innermost open span", id))
	}
	o := l.stack[n-1]
	l.stack = l.stack[:n-1]
	o.End = t
	dur := o.End - o.Start
	if n > 1 {
		l.stack[n-2].childNs += dur
	}
	l.record(o.span, dur-o.childNs)
	return dur
}

// leaf records a span with no children that ran from t0 to t1 on the
// goroutine holding the open spans, under the innermost one.
func (l *spanLog) leaf(layer, name string, req, t0, t1 int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	s := span{ID: l.nextID, Layer: layer, Name: name, Req: req, Start: t0, End: t1}
	if n := len(l.stack); n > 0 {
		s.Parent = l.stack[n-1].ID
		l.stack[n-1].childNs += t1 - t0
	}
	l.record(s, t1-t0)
}

// add records a span finished on another goroutine, with no children.
func (l *spanLog) add(layer, name string, parent, req int64, start, end time.Time) {
	s := span{Parent: parent, Layer: layer, Name: name, Req: req, Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	s.ID = l.nextID
	l.record(s, s.End-s.Start)
}

// record folds a closed span into its layer's totals; l.mu is held.
func (l *spanLog) record(s span, selfNs int64) {
	t := l.layers[s.Layer]
	if t == nil {
		t = &layerTotals{}
		l.layers[s.Layer] = t
	}
	t.count++
	t.totalNs += s.End - s.Start
	t.selfNs += selfNs
	if t.kept < spansPerLayer {
		t.kept++
		l.kept = append(l.kept, s)
	}
}

// layerNames returns the layers seen, sorted.
func (l *spanLog) layerNames() []string {
	names := make([]string, 0, len(l.layers))
	for n := range l.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeTable writes the per-layer count, total and self time.
func (l *spanLog) writeTable(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-22s %10s %14s %14s %10s\n", "layer", "spans", "total_ms", "self_ms", "kept")
	for _, n := range l.layerNames() {
		t := l.layers[n]
		fmt.Fprintf(bw, "%-22s %10d %14.3f %14.3f %10d\n", n, t.count, float64(t.totalNs)/1e6, float64(t.selfNs)/1e6, t.kept)
	}
	return bw.Flush()
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the kept spans as a Chrome trace, one track per
// layer.
func (l *spanLog) writeChrome(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tid := map[string]int{}
	for i, n := range l.layerNames() {
		tid[n] = i + 1
	}
	evs := make([]chromeEvent, 0, len(l.kept))
	for _, s := range l.kept {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid[s.Layer],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// writeFiles writes the Chrome trace and the layer table into dir under
// the given file-name stem, and returns the two paths.
func (l *spanLog) writeFiles(dir, stem string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, f := range []struct {
		suffix string
		write  func(io.Writer) error
	}{{".trace.json", l.writeChrome}, {".layers.txt", l.writeTable}} {
		path := filepath.Join(dir, stem+f.suffix)
		file, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := f.write(file); err != nil {
			file.Close()
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		if err := file.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
