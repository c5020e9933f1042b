// Command bench is the repository benchmark: seeded workloads over the
// DReAMSim grid engine (grid.RunScenario) and the multi-tenant control
// plane (an in-process rmsd driven over loopback), with end-to-end metrics
// from untraced runs and per-layer metrics from traced ones. See README.md
// for the workloads, the metrics and how to compare two commits.
//
// Usage:
//
//	bench -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-trace-out <dir>]
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}.
// Every run checks the program's outputs; a violation prints the result
// with "correct": false and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric. Bound applies to end-to-end
// metrics only: the share of the parent's median by which the metric may
// get worse before a change counts as a regression. BENCHMARK.json at the
// repository root lists the same definitions (a test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of untraced runs, reported for every workload.
// turnaround_s is the model's output: exact for a seed, so its bound only
// has to cover how it varies between seeds (README.md, "End-to-end
// metrics"). Throughput and latency are not among them: on the machine the
// benchmark was sized on, their spread over ten seeded runs was far above a
// tenth (README.md, "Noise"), so they are reported with the per-layer
// metrics rather than gated with a wider bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"turnaround_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// The end-to-end timings: sim, simulated tasks per host second; rmsd,
// closed-loop tasks finished per second. Latency is one scenario run
// (sim), a submit from its due time in the open loop (rmsd-steady) or a
// closed-loop submit round trip (rmsd-fanout).
var (
	tasksPerSecond = metricDef{"run.tasks_per_s", "tasks/s", "higher", 0}
	latencyP50     = metricDef{"run.latency_p50_ms", "ms", "lower", 0}
)

// perLayer are the metrics of traced runs, reported for every workload; a
// metric of a layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		tasksPerSecond,
		latencyP50,
		{"sim.events_per_task", "events/task", "lower", 0},
		{"sim.queue_ns_per_event", "ns", "lower", 0},
		{"sim.cancels_per_task", "cancels/task", "lower", 0},
		{"sim.handler_ns_per_event", "ns", "lower", 0},
		{"sched.choose_calls_per_task", "calls/task", "lower", 0},
		{"sched.choose_ns_per_call", "ns", "lower", 0},
		{"sched.options_per_choose", "options/call", "lower", 0},
		{"rms.place_attempts_per_dispatch", "ratio", "lower", 0},
		{"fabric.reconfigs_per_task", "reconfigs/task", "lower", 0},
		{"fabric.reuse_ratio", "ratio", "higher", 0},
		{"fabric.compaction_moves_per_task", "moves/task", "lower", 0},
		{"faults.dispatches_per_task", "dispatches/task", "lower", 0},
		{"faults.lease_expiries_per_task", "expiries/task", "lower", 0},
		{"run.allocs_per_task", "allocs/task", "lower", 0},
		{"run.alloc_bytes_per_task", "B/task", "lower", 0},
		{"runtime.gc_cpu_share", "share", "lower", 0},
		{"runtime.gc_cycles_per_ktask", "cycles/ktask", "lower", 0},
		{"model.failed_share", "share", "lower", 0},
	}
	for _, kind := range []string{"cpu_share", "alloc_share"} {
		for _, l := range layers {
			defs = append(defs, metricDef{kind + "." + l, "share", "lower", 0})
		}
	}
	return append(defs,
		metricDef{"controlplane.decode_ns", "ns", "lower", 0},
		metricDef{"controlplane.do_p50_us", "us", "lower", 0},
		metricDef{"controlplane.do_p99_us", "us", "lower", 0},
		metricDef{"wire.overhead_p50_us", "us", "lower", 0},
		metricDef{"controlplane.first_submit_p50_us", "us", "lower", 0},
		metricDef{"controlplane.bytes_per_tenant", "B/tenant", "lower", 0},
		metricDef{"controlplane.retained_bytes_per_task", "B/task", "lower", 0},
		metricDef{"controlplane.drain_s", "s", "lower", 0},
		metricDef{"controlplane.events_per_task", "events/task", "lower", 0},
		metricDef{"load.late_p50_ms", "ms", "lower", 0},
		metricDef{"load.late_p99_ms", "ms", "lower", 0},
		metricDef{"load.submit_p90_ms", "ms", "lower", 0},
		metricDef{"load.submit_p99_ms", "ms", "lower", 0},
		metricDef{"trace.overhead", "ratio", "lower", 0},
	)
}()

// roundKind selects what a round measures. An untraced run has only plain
// rounds. A traced run cycles plain → traced → profiled, so each
// instrument runs alone: plain rounds give the runtime counters and the
// untraced side of the tracing overhead, traced rounds the probes and
// spans, profiled rounds the CPU and allocation profiles.
type roundKind int

const (
	plain roundKind = iota
	traced
	profiled
)

func (k roundKind) String() string { return [...]string{"plain", "traced", "profiled"}[k] }

// round is what one round of a workload reports.
type round struct {
	kind roundKind
	// setupS holds the duration of each of the round's set-ups.
	setupS []float64
	// tasks is the work the round's throughput counts and busyS the host
	// seconds it took.
	tasks, busyS float64
	// turnaroundS is the model's mean turnaround in virtual seconds (rmsd:
	// tenant virtual seconds per completed task).
	turnaroundS float64
	// latMS are the end-to-end latency samples in milliseconds.
	latMS             []float64
	attempted, failed int
	// digest summarizes the model's outputs; it must be equal in every
	// round of a run, traced or not.
	digest string
	// layer holds per-layer values measured by this round; a metric's
	// value is its median over the rounds that measured it.
	layer      map[string]float64
	violations []string

	// rssMB is filled in by runRounds; rt, cpu and alloc by env.end.
	rssMB      float64
	rt         rtSample
	cpu, alloc map[string]float64
}

func (r *round) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// env is what a round gets from runRounds: its inputs and the hooks that
// delimit its measured phase.
type env struct {
	seed uint64
	toy  bool
	kind roundKind
	log  *spanLog

	rt0   rtSample
	heap0 []byte
	cpu   bytes.Buffer
}

// setupRepeats is how many times a round sets up. setup_s is the median
// over every repetition of every plain round, so a single slow set-up (a
// heap paged back in after the previous workload, a late goroutine
// wake-up) does not move it.
const setupRepeats = 5

// repeatSetup runs a round's set-up setupRepeats times, each after a
// collection so that every repetition starts from the same heap. It keeps
// the last repetition's result, hands each earlier one to drop, and
// returns the duration of every repetition.
func repeatSetup[T any](setup func() (T, error), drop func(T) error) (T, []float64, error) {
	var last, zero T
	durs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := drop(last); err != nil {
				return zero, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	return last, durs, nil
}

// begin starts the measured phase, after the round's set-up.
func (e *env) begin() error {
	if e.kind == profiled {
		e.heap0 = allocProfile()
		if err := pprof.StartCPUProfile(&e.cpu); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	e.rt0 = readRuntime()
	return nil
}

// end stops the measured phase and records the runtime deltas and, in a
// profiled round, the per-layer profile totals. Both allocation profiles
// are decoded only after the second is taken, so decoding stays out of
// the difference.
func (e *env) end(r *round) error {
	r.rt = readRuntime().sub(e.rt0)
	if e.kind != profiled {
		return nil
	}
	pprof.StopCPUProfile()
	heap1 := allocProfile()
	var err error
	if r.cpu, err = foldProfile(e.cpu.Bytes(), "cpu"); err != nil {
		return err
	}
	before, err := foldProfile(e.heap0, "alloc_space")
	if err != nil {
		return err
	}
	after, err := foldProfile(heap1, "alloc_space")
	if err != nil {
		return err
	}
	r.alloc = map[string]float64{}
	for _, l := range layers {
		r.alloc[l] = after[l] - before[l]
	}
	return nil
}

// allocProfile returns the allocation profile: bytes and objects
// allocated since the process started, by stack. The profile reflects the
// last completed GC, so it runs one first.
func allocProfile() []byte {
	runtime.GC()
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = pprof.Lookup("allocs").WriteTo(&buf, 0)
	return buf.Bytes()
}

// foldProfile decodes a profile and folds one sample type per layer.
func foldProfile(data []byte, sampleType string) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	return p.fold(sampleType)
}

// workload is one named set of seeded inputs and the round that runs them.
type workload struct {
	name, why string
	round     func(e *env) (*round, error)
}

func workloadByName(name string) ([]*workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []*workload{w}, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	// toy shrinks every input to a smoke test; the tests set it.
	toy bool
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 for a traced run (per-layer metrics), 0 for end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory for the span files of a traced run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() > 0:
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return nil, errors.New("-workload is required")
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	case o.seconds < 0 || o.seconds > 3600:
		return nil, fmt.Errorf("-seconds must be within [0, 3600], not %g", o.seconds)
	}
	return o, nil
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs the workloads o names and prints their result; it returns
// the exit code.
func execute(o *options, stdout, stderr io.Writer) int {
	ws, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runs, err := runRounds(o, ws)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, wr := range runs {
		s := wr.summarize()
		wr.print(stdout, s)
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, v := range s.violations {
			fmt.Fprintf(stderr, "bench: %s: %s\n", wr.w.name, v)
			res.Correct = false
		}
		for _, d := range defs {
			name := d.Name
			if len(runs) > 1 {
				name = wr.w.name + "." + name
			}
			res.Metrics[name] = metricValue{Value: s.values[d.Name], Unit: d.Unit}
		}
		if wr.log != nil {
			paths, err := wr.log.writeFiles(o.traceOut, fmt.Sprintf("%s-seed%d", wr.w.name, o.seed))
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "  spans: %s\n", strings.Join(paths, ", "))
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadRun is one workload's rounds within a run.
type workloadRun struct {
	w      *workload
	rounds []*round
	spent  time.Duration
	last   time.Duration
	log    *spanLog
}

// runRounds runs rounds of every workload, interleaved, until each has
// used its share of the time: a workload stops once its next round (as
// long as its last one) would overrun its budget, but never before it has
// run minRounds. Before each round the heap is collected and the peak-RSS
// counter restarts, so every round reports its own peak; when the round
// belongs to another workload than the last one, the heap is also
// returned to the OS, so one workload's memory does not count against
// the next.
func runRounds(o *options, ws []*workload) ([]*workloadRun, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	minRounds := 2
	if o.trace == 1 {
		minRounds = 3
	}
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w}
		if o.trace == 1 {
			runs[i].log = newSpanLog()
		}
	}
	var prev *workloadRun
	for {
		ran := false
		for _, wr := range runs {
			if len(wr.rounds) >= minRounds && wr.spent+wr.last > budget {
				continue
			}
			kind := plain
			if o.trace == 1 {
				kind = roundKind(len(wr.rounds) % 3)
			}
			start := time.Now()
			if wr == prev {
				runtime.GC()
			} else {
				debug.FreeOSMemory()
			}
			prev = wr
			resetPeakRSS()
			e := &env{seed: o.seed, toy: o.toy, kind: kind, log: wr.log}
			r, err := wr.w.round(e)
			if err != nil {
				return nil, fmt.Errorf("%s round %d (%s): %w", wr.w.name, len(wr.rounds), kind, err)
			}
			r.kind = kind
			r.rssMB = peakRSSMB()
			wr.last = time.Since(start)
			wr.spent += wr.last
			wr.rounds = append(wr.rounds, r)
			ran = true
		}
		if !ran {
			return runs, nil
		}
	}
}

// summary is one workload's metrics, aggregated over its rounds.
type summary struct {
	values            map[string]float64
	attempted, failed int
	violations        []string
	// plainRounds, setupSamples and latSamples describe the samples behind
	// the medians.
	plainRounds, setupSamples, latSamples int
}

// summarize aggregates a workload's rounds. End-to-end metrics come from
// plain rounds only; each is a median (latency over the pooled samples).
func (wr *workloadRun) summarize() summary {
	s := summary{values: map[string]float64{}}
	for _, d := range endToEnd {
		s.values[d.Name] = 0
	}
	for _, d := range perLayer {
		s.values[d.Name] = 0
	}
	var setup, tput, rss, lat, turnaround []float64
	var tracedTput []float64
	var allocs, allocBytes, gcShare, gcCycles []float64
	cpu, alloc := map[string]float64{}, map[string]float64{}
	layerVals := map[string][]float64{}
	for i, r := range wr.rounds {
		s.attempted += r.attempted
		s.failed += r.failed
		for _, v := range r.violations {
			s.violations = append(s.violations, fmt.Sprintf("round %d (%s): %s", i, r.kind, v))
		}
		if r.digest != wr.rounds[0].digest {
			s.violations = append(s.violations, fmt.Sprintf("round %d (%s): model outputs differ from round 0 (%s): %s vs %s",
				i, r.kind, wr.rounds[0].kind, r.digest, wr.rounds[0].digest))
		}
		for _, d := range perLayer {
			if v, ok := r.layer[d.Name]; ok {
				layerVals[d.Name] = append(layerVals[d.Name], v)
			}
		}
		turnaround = append(turnaround, r.turnaroundS)
		switch r.kind {
		case plain:
			s.plainRounds++
			setup = append(setup, r.setupS...)
			tput = append(tput, ratio(r.tasks, r.busyS))
			rss = append(rss, r.rssMB)
			lat = append(lat, r.latMS...)
			allocs = append(allocs, ratio(r.rt.allocObjects, r.tasks))
			allocBytes = append(allocBytes, ratio(r.rt.allocBytes, r.tasks))
			gcShare = append(gcShare, ratio(r.rt.gcCPU, r.rt.totalCPU))
			gcCycles = append(gcCycles, 1000*ratio(r.rt.gcCycles, r.tasks))
		case traced:
			tracedTput = append(tracedTput, ratio(r.tasks, r.busyS))
		case profiled:
			for _, l := range layers {
				cpu[l] += r.cpu[l]
				alloc[l] += r.alloc[l]
			}
		}
	}
	s.setupSamples, s.latSamples = len(setup), len(lat)
	s.values["setup_s"] = median(setup)
	s.values["turnaround_s"] = median(turnaround)
	s.values[tasksPerSecond.Name] = median(tput)
	s.values[latencyP50.Name] = median(lat)
	s.values["peak_rss_mb"] = median(rss)
	s.values["run.allocs_per_task"] = median(allocs)
	s.values["run.alloc_bytes_per_task"] = median(allocBytes)
	s.values["runtime.gc_cpu_share"] = median(gcShare)
	s.values["runtime.gc_cycles_per_ktask"] = median(gcCycles)
	if len(tracedTput) > 0 {
		s.values["trace.overhead"] = ratio(median(tput), median(tracedTput)) - 1
	}
	for k, vs := range layerVals {
		s.values[k] = median(vs)
	}
	for _, share := range []struct {
		name   string
		totals map[string]float64
	}{{"cpu_share", cpu}, {"alloc_share", alloc}} {
		var sum float64
		for _, l := range layers {
			sum += share.totals[l]
		}
		for _, l := range layers {
			s.values[share.name+"."+l] = ratio(share.totals[l], sum)
		}
	}
	return s
}

// headline are the metrics every run prints: the end-to-end metrics and
// the timings that are reported as per-layer metrics.
var headline = append(append([]metricDef(nil), endToEnd...), tasksPerSecond, latencyP50)

// print writes a workload's metrics as a table.
func (wr *workloadRun) print(w io.Writer, s summary) {
	kinds := map[roundKind]int{}
	for _, r := range wr.rounds {
		kinds[r.kind]++
	}
	fmt.Fprintf(w, "%s: %d rounds (%d plain, %d traced, %d profiled) in %.1fs\n",
		wr.w.name, len(wr.rounds), kinds[plain], kinds[traced], kinds[profiled], wr.spent.Seconds())
	fmt.Fprintf(w, "  medians of %d plain rounds (set-up over %d samples, latency over %d)\n",
		s.plainRounds, s.setupSamples, s.latSamples)
	for _, d := range headline {
		fmt.Fprintf(w, "    %-36s %14.6g %s\n", d.Name, s.values[d.Name], d.Unit)
	}
	if wr.log == nil {
		return
	}
	fmt.Fprintln(w, "  per layer")
	names := make([]string, 0, len(perLayer))
	units := map[string]string{}
	for _, d := range perLayer {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "    %-36s %14.6g %s\n", n, s.values[n], units[n])
	}
}
