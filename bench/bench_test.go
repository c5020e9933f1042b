package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny.pprof")

// runBench runs the benchmark in process at toy size and returns its
// result line and its whole output.
func runBench(t *testing.T, o options) (result, string) {
	t.Helper()
	o.toy = true
	var out, errb bytes.Buffer
	code := execute(&o, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("bench %+v: exit %d\nstdout:\n%s\nstderr:\n%s", o, code, out.String(), errb.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, defined %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
}

// checkMetrics checks that the result reports exactly defs under each
// prefix, with their units and finite values.
func checkMetrics(t *testing.T, res result, defs []metricDef, prefixes []string) {
	t.Helper()
	units := map[string]string{}
	for _, p := range prefixes {
		for _, d := range defs {
			units[p+d.Name] = d.Unit
		}
	}
	for name, v := range res.Metrics {
		if units[name] != v.Unit {
			t.Errorf("%s: unit %q, want %q", name, v.Unit, units[name])
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: value %v", name, v.Value)
		}
	}
	if len(res.Metrics) != len(units) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(units))
	}
}

// TestToyRun runs every workload at toy size, untraced and traced, and
// checks that each reports exactly the metrics BENCHMARK.json names, that
// its output checks pass, and that a traced run writes its span files.
func TestToyRun(t *testing.T) {
	b := readBenchmarkJSON(t)
	var prefixes []string
	for _, w := range b.Workloads {
		prefixes = append(prefixes, w.Name+".")
	}

	res, _ := runBench(t, options{workload: "all", seed: 7})
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("untraced run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	checkMetrics(t, res, b.EndToEnd, prefixes)
	for name, v := range res.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
		}
	}

	dir := t.TempDir()
	res, out := runBench(t, options{workload: "all", seed: 7, trace: 1, traceOut: dir})
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	checkMetrics(t, res, b.PerLayer, prefixes)
	for _, w := range workloads {
		for _, suffix := range []string{".trace.json", ".layers.txt"} {
			path := filepath.Join(dir, w.name+"-seed7"+suffix)
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Errorf("span file %s missing or empty (%v)", path, err)
			}
		}
	}
	var chrome struct{ TraceEvents []chromeEvent }
	data, err := os.ReadFile(filepath.Join(dir, "sim-faults-seed7.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("sim-faults trace: %d events, %v", len(chrome.TraceEvents), err)
	}
}

// TestProbesLeaveOutputsUnchanged runs each workload's toy round plain and
// traced (scheduler, strategy and trace-sink probes attached) and compares
// the model outputs.
func TestProbesLeaveOutputsUnchanged(t *testing.T) {
	for _, w := range workloads {
		var digests []string
		for _, kind := range []roundKind{plain, traced} {
			r, err := w.round(&env{seed: 3, toy: true, kind: kind, log: newSpanLog()})
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, kind, err)
			}
			if len(r.violations) > 0 {
				t.Errorf("%s %s: %q", w.name, kind, r.violations)
			}
			for name := range r.layer {
				if !isPerLayer(name) {
					t.Errorf("%s %s: round reports %q, which is not a per-layer metric", w.name, kind, name)
				}
			}
			digests = append(digests, r.digest)
		}
		if digests[0] == "" || digests[0] != digests[1] {
			t.Errorf("%s: plain outputs %q, traced %q", w.name, digests[0], digests[1])
		}
	}
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

func TestSeedChangesInputs(t *testing.T) {
	digest := func(seed uint64) string {
		r, err := simFaults.round(&env{seed: seed, toy: true})
		if err != nil {
			t.Fatal(err)
		}
		return r.digest
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same outputs %s", a)
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "sim-reuse", "-trace", "2"},
		{"-workload", "sim-reuse", "-seconds", "-1"},
		{"-workload", "sim-reuse", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("bench %q: exit %d, stdout %q; want exit 2 and no result", args, code, out.String())
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{21, 0.5, 11, true},  // 10 samples beyond the median
		{20, 0.5, 10, true},  // 10 beyond
		{19, 0.5, 10, false}, // 9 beyond
		{100, 0.9, 90, true}, // 10 beyond
		{99, 0.9, 90, false}, // 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
	} {
		got, ok := tail(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("tail(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if got := tailOrZero(seq(50), 0.99); got != 0 {
		t.Errorf("tailOrZero without enough samples = %v", got)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/fabric.(*Allocator).AllocAt", "repro/internal/rms.(*Matchmaker).Allocate"}, "fabric"},
		{[]string{"repro/internal/node.(*Node).RPEs", "repro/internal/rms.(*Matchmaker).Candidates"}, "rms"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"fmt.Sprintf"}, "other"},
		{[]string{"internal/poll.(*FD).Write", "net.(*conn).Write", "main.closedLoop"}, "net"},
		{[]string{"runtime.mallocgc", "main.openLoop", "repro/internal/controlplane.(*Server).Do"}, "other"},
		{[]string{"repro/internal/controlplane.mergeSorted[go.shape.struct { repro/internal/rms.x int }]"}, "controlplane"},
		{[]string{"encoding/json.(*decodeState).object", "repro/internal/controlplane.DecodeRequest"}, "encoding_json"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// tinyProfile is the content of testdata/tiny.pprof: one CPU sample per
// case of the folding rules, each with a distinct value.
func tinyProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg pbuf
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pbuf
		vt.varint(1, str(st[0]))
		vt.varint(2, str(st[1]))
		msg.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	var functions, locations pbuf
	nloc := uint64(0)
	// loc adds a location whose lines are fns, innermost first.
	loc := func(fns ...string) uint64 {
		nloc++
		var l pbuf
		l.varint(1, nloc)
		for _, fn := range fns {
			id, ok := funcs[fn]
			if !ok {
				id = uint64(len(funcs) + 1)
				funcs[fn] = id
				var f pbuf
				f.varint(1, id)
				f.varint(2, str(fn))
				functions.bytes(5, f.b)
			}
			var line pbuf
			line.varint(1, id)
			l.bytes(4, line.b)
		}
		locations.bytes(4, l.b)
		return nloc
	}
	sample := func(ms int64, locs ...uint64) {
		var s pbuf
		s.packed(1, locs)
		s.packed(2, []uint64{1, uint64(ms * 1e6)})
		msg.bytes(2, s.b)
	}
	malloc := loc("runtime.mallocgc")
	sample(10, malloc, loc("repro/internal/fabric.(*Allocator).AllocAt"), loc("repro/internal/rms.(*Matchmaker).Allocate"), loc("repro/internal/grid.(*Engine).dispatchOne"))
	sample(20, loc("repro/internal/node.(*Node).RPEs"), loc("repro/internal/rms.(*Matchmaker).Candidates"))
	sample(30, loc("runtime.gcBgMarkWorker"))
	sample(40, loc("encoding/json.(*decodeState).object"), loc("repro/internal/controlplane.DecodeRequest"))
	sample(50, loc("internal/poll.(*FD).Write"), loc("net.(*conn).Write"), loc("main.closedLoop"))
	sample(60, malloc, loc("main.openLoop"))
	// An inlined helper: one location, two lines.
	sample(70, loc("sort.Search", "repro/internal/sched.ReconfigAware.Choose"))
	sample(80, loc("repro/internal/controlplane.mergeSorted[go.shape.struct { repro/internal/rms.x int }]"))
	sample(90, loc("fmt.Sprintf"))
	msg.b = append(msg.b, locations.b...)
	msg.b = append(msg.b, functions.b...)
	for _, s := range strs {
		msg.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(msg.b)
	zw.Close()
	return z.Bytes()
}

// pbuf is a minimal protobuf encoder for building test profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pbuf) packed(field int, vs []uint64) {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	p.bytes(field, data)
}

func TestFoldTinyProfile(t *testing.T) {
	path := filepath.Join("testdata", "tiny.pprof")
	if *update {
		if err := os.WriteFile(path, tinyProfile(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldProfile(data, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, l := range layers {
		want[l] = 0
	}
	for l, ms := range map[string]float64{
		"fabric": 10, "rms": 20, "runtime": 30, "encoding_json": 40, "net": 50,
		"other": 60 + 90, "sched": 70, "controlplane": 80,
	} {
		want[l] = ms * 1e6
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold(cpu):\n got %v\nwant %v", got, want)
	}
	counts, err := foldProfile(data, "samples")
	if err != nil {
		t.Fatal(err)
	}
	if counts["other"] != 2 || counts["fabric"] != 1 {
		t.Errorf("fold(samples) = %v", counts)
	}
	if _, err := foldProfile(data, "alloc_space"); err == nil {
		t.Error("folding a sample type the profile lacks succeeded")
	}
	if _, err := parseProfile(data[:len(data)/2]); err == nil {
		t.Error("parsing a truncated profile succeeded")
	}
}

// TestFoldRuntimeProfile decodes a profile the runtime wrote.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := foldProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += got[l]
	}
	if len(got) != len(layers) || sum <= 0 {
		t.Errorf("fold(alloc_space) = %v", got)
	}
}

// TestPeakRSSReset checks that a round's peak-RSS reading excludes memory
// the process held before the round.
func TestPeakRSSReset(t *testing.T) {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1
	}
	before := peakRSSMB()
	buf = nil
	runtime.GC()
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		t.Skip("the kernel refuses to reset VmHWM")
	}
	if after := peakRSSMB(); before < 64 || after > before-32 {
		t.Errorf("peak RSS %.1f MB before the reset, %.1f MB after", before, after)
	}
}
