// Command dreamsim runs configurable DReAMSim-style grid simulations: a
// synthetic many-task workload over a grid of GPP and reconfigurable nodes
// under a chosen scheduling strategy, reporting waiting times, turnaround,
// utilization, and reconfiguration behaviour.
//
// Example:
//
//	dreamsim -strategy reconfig-aware -tasks 500 -rate 1.5 -seeds 5
//	dreamsim -compare -tasks 300 -rate 0.8
//	dreamsim -compare -faults -crash-rate 0.05 -outage 20
//	dreamsim -tasks 200 -seeds 1 -trace-out run.json -timeline-out tl.csv -sample 1
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars (runtime metrics) on the -pprof server
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"path/filepath"
	"strings"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	var (
		strategyName = flag.String("strategy", "reconfig-aware", "scheduling strategy: "+names())
		queue        = flag.String("queue", "fcfs", "queue policy: fcfs or sjf")
		tasks        = flag.Int("tasks", 300, "workload size")
		rate         = flag.Float64("rate", 0.8, "Poisson arrival rate (tasks/s)")
		seeds        = flag.Int("seeds", 3, "independent replications")
		seed0        = flag.Uint64("seed", 1, "first seed")
		shareHW      = flag.Float64("share-hw", 0.3, "user-defined-hardware task share")
		shareSC      = flag.Float64("share-softcore", 0.2, "soft-core task share")
		gppNodes     = flag.Int("gpp-nodes", 2, "GPP-only node count")
		hybridNodes  = flag.Int("hybrid-nodes", 2, "hybrid (GPP+RPE) node count")
		devices      = flag.String("devices", "XC5VLX155T,XC5VLX330T", "comma-separated RPE devices per hybrid node")
		cfgPort      = flag.Float64("cfg-mbps", 0, "override configuration-port bandwidth (MB/s, 0 = device default)")
		noPR         = flag.Bool("no-partial", false, "disable partial reconfiguration")
		compare      = flag.Bool("compare", false, "run every strategy and print a comparison table")
		workloadIn   = flag.String("workload", "", "replay a JSON workload trace instead of generating one")
		workloadOut  = flag.String("save-workload", "", "write the generated workload trace to this file and exit")

		traceOut    = flag.String("trace-out", "", "write the run's event trace to this file: .json = Chrome trace-event JSON (Perfetto-loadable), otherwise CSV (single strategy, single seed)")
		timelineOut = flag.String("timeline-out", "", "write the sampled gauge timeline (queue, utilization, fabric, energy) as CSV to this file (single strategy, single seed)")
		sampleEvery = flag.Float64("sample", 0, "gauge sampling interval in virtual seconds (0 = off; defaults to 1 when -timeline-out is set)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and expvar runtime metrics on this address (e.g. localhost:6060) during the run")
		progress    = flag.Bool("progress", false, "print per-replica completion lines to stderr while the sweep runs")

		withFaults = flag.Bool("faults", false, "inject deterministic node/SEU/link faults (see -crash-rate etc.)")
		crashRate  = flag.Float64("crash-rate", faults.Default().CrashRate, "node crashes per node-second (with -faults)")
		outage     = flag.Float64("outage", faults.Default().MeanOutageSeconds, "mean node outage duration in seconds (with -faults)")
		seuRate    = flag.Float64("seu-rate", faults.Default().SEURate, "SEU configuration upsets per node-second (with -faults)")
		linkRate   = flag.Float64("link-rate", faults.Default().LinkFaultRate, "link faults per node-second (with -faults)")
		maxRetries = flag.Int("max-retries", faults.Default().Retry.MaxRetries, "retry budget per task, 0 = unlimited (with -faults)")
	)
	flag.Parse()
	var fspec *faults.Spec
	if *withFaults {
		f := faults.Default()
		f.CrashRate = *crashRate
		f.MeanOutageSeconds = *outage
		f.SEURate = *seuRate
		f.LinkFaultRate = *linkRate
		f.Retry.MaxRetries = *maxRetries
		fspec = &f
	}
	if *workloadOut != "" {
		if err := saveTrace(*workloadOut, *tasks, *rate, *seed0, *shareHW, *shareSC); err != nil {
			fmt.Fprintln(os.Stderr, "dreamsim:", err)
			os.Exit(1)
		}
		return
	}
	opts := obsOpts{
		traceOut:    *traceOut,
		timelineOut: *timelineOut,
		sample:      *sampleEvery,
		pprofAddr:   *pprofAddr,
		progress:    *progress,
	}
	if err := run(*strategyName, *queue, *tasks, *rate, *seeds, *seed0, *shareHW, *shareSC,
		*gppNodes, *hybridNodes, *devices, *cfgPort, *noPR, *compare, *workloadIn, fspec, opts); err != nil {
		fmt.Fprintln(os.Stderr, "dreamsim:", err)
		os.Exit(1)
	}
}

// obsOpts carries the observability flags into run.
type obsOpts struct {
	traceOut    string
	timelineOut string
	sample      float64
	pprofAddr   string
	progress    bool
}

// capture reports whether the run records trace or timeline output,
// which pins it to a single strategy and seed (one engine, one stream).
func (o obsOpts) capture() bool { return o.traceOut != "" || o.timelineOut != "" }

// saveTrace generates a workload and writes it as a JSON trace.
func saveTrace(path string, tasks int, rate float64, seed uint64, shareHW, shareSC float64) error {
	ws := grid.DefaultWorkload(tasks, rate)
	ws.ShareUserHW = shareHW
	ws.ShareSoftcore = shareSC
	gen, err := grid.Generate(sim.NewRNG(seed), ws)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := grid.SaveWorkload(f, gen); err != nil {
		_ = f.Close()
		return err
	}
	// Close errors on a written file are real: the workload may be
	// truncated on a full disk.
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d tasks to %s\n", len(gen), path)
	return nil
}

func names() string {
	var out []string
	for _, s := range sched.All() {
		out = append(out, s.Name())
	}
	return strings.Join(out, ", ")
}

func run(strategyName, queueName string, tasks int, rate float64, seeds int, seed0 uint64,
	shareHW, shareSC float64, gppNodes, hybridNodes int, devices string, cfgPort float64,
	noPR, compare bool, workloadIn string, fspec *faults.Spec, opts obsOpts) error {

	if opts.pprofAddr != "" {
		addr := opts.pprofAddr
		fmt.Fprintln(os.Stderr, "dreamsim: serving pprof and expvar on http://"+addr+"/debug/")
		//reconlint:allow goroleak pprof server is a process-lifetime daemon by design; it must outlive every run
		go func() {
			// The profiling server is best-effort: a bind failure must not
			// kill the simulation, just announce itself.
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dreamsim: pprof server:", err)
			}
		}()
	}
	if opts.capture() {
		if compare {
			return fmt.Errorf("-trace-out/-timeline-out record one engine's stream; drop -compare")
		}
		if seeds != 1 && workloadIn == "" {
			return fmt.Errorf("-trace-out/-timeline-out record one run; use -seeds 1 (have %d)", seeds)
		}
		if opts.timelineOut != "" && opts.sample <= 0 {
			opts.sample = 1
		}
	}
	// Build the capture sinks up front; traceSink fans into all of them.
	var (
		sinks      []obs.TraceSink
		chromeSink *obs.Chrome
		csvSink    *obs.CSV
		timeline   *obs.Timeline
		traceFile  *os.File
	)
	if opts.traceOut != "" {
		f, err := os.Create(opts.traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		if strings.HasSuffix(opts.traceOut, ".json") {
			chromeSink = obs.NewChrome(f)
			sinks = append(sinks, chromeSink)
		} else {
			csvSink = obs.NewCSV(f)
			sinks = append(sinks, csvSink)
		}
	}
	if opts.timelineOut != "" {
		timeline = obs.NewTimeline()
		sinks = append(sinks, timeline)
	}
	traceSink := obs.Multi(sinks...)

	gs := grid.DefaultGridSpec()
	gs.GPPNodes = gppNodes
	gs.HybridNodes = hybridNodes
	gs.RPEDevices = strings.Split(devices, ",")
	gs.ReconfigMBpsOverride = cfgPort
	gs.DisablePartialReconfig = noPR

	// Either replay a trace or generate per-seed workloads.
	var trace []grid.Generated
	if workloadIn != "" {
		f, err := os.Open(workloadIn)
		if err != nil {
			return err
		}
		// Read-only close: nothing to recover, discard explicitly.
		defer func() { _ = f.Close() }()
		trace, err = grid.LoadWorkload(f)
		if err != nil {
			return err
		}
		seeds = 1 // a trace is one fixed workload
	}
	mkWorkload := func() grid.WorkloadSpec {
		ws := grid.DefaultWorkload(tasks, rate)
		ws.ShareUserHW = shareHW
		ws.ShareSoftcore = shareSC
		return ws
	}

	var queue sched.QueuePolicy
	switch strings.ToLower(queueName) {
	case "fcfs":
		queue = sched.FCFS
	case "sjf":
		queue = sched.SJF
	default:
		return fmt.Errorf("unknown queue policy %q", queueName)
	}

	strategies := sched.All()
	if !compare {
		s, err := sched.ByName(strategyName)
		if err != nil {
			if errors.Is(err, sched.ErrUnknownStrategy) {
				return fmt.Errorf("%w (have %s)", err, names())
			}
			return err
		}
		strategies = []sched.Strategy{s}
	}

	tc, err := grid.DefaultToolchain()
	if err != nil {
		return err
	}

	// The strategy × seed grid runs as one parallel sweep; a trace is one
	// fixed workload, replayed once per strategy.
	perStrategy := make([][]*grid.Metrics, len(strategies))
	if trace != nil {
		for si, s := range strategies {
			cfg := grid.DefaultConfig()
			cfg.Strategy = s
			cfg.Queue = queue
			cfg.Tracer = traceSink
			cfg.SampleEverySeconds = opts.sample
			m, err := grid.RunScenario(context.Background(), grid.ScenarioSpec{
				Seed: seed0, Config: cfg, Grid: gs, Toolchain: tc, Trace: trace, Faults: fspec,
			})
			if err != nil {
				return err
			}
			perStrategy[si] = []*grid.Metrics{m}
		}
	} else {
		seedList := make([]uint64, seeds)
		for r := range seedList {
			seedList[r] = seed0 + uint64(r)
		}
		points := make([]grid.SweepPoint, len(strategies))
		for si, s := range strategies {
			cfg := grid.DefaultConfig()
			cfg.Strategy = s
			cfg.Queue = queue
			cfg.SampleEverySeconds = opts.sample
			points[si] = grid.SweepPoint{Name: s.Name(), Config: cfg, Grid: gs, Workload: mkWorkload(), Faults: fspec}
		}
		spec := grid.SweepSpec{Points: points, Seeds: seedList, Toolchain: tc}
		total := len(points) * len(seedList)
		if opts.progress {
			spec.Progress = func(rr grid.ReplicaResult) {
				status := "ok"
				if rr.Err != nil {
					status = rr.Err.Error()
				}
				fmt.Fprintf(os.Stderr, "dreamsim: replica %d/%d (%s, seed %d): %s\n",
					rr.Replica.Index+1, total, rr.Replica.Name, rr.Replica.Seed, status)
			}
		}
		if traceSink != nil {
			// Capture mode is one strategy × one seed, so the single
			// replica owns the whole stream.
			spec.SinkFactory = func(grid.Replica) obs.TraceSink { return traceSink }
		}
		res, err := grid.Sweep(context.Background(), spec)
		if err != nil {
			return err
		}
		for _, r := range res.Replicas {
			if r.Err != nil {
				return fmt.Errorf("%s seed %d: %w", r.Replica.Name, r.Replica.Seed, r.Err)
			}
			perStrategy[r.Replica.Point] = append(perStrategy[r.Replica.Point], r.Metrics)
		}
	}

	// Finalize capture output: the Chrome document needs its closing
	// bracket, the CSV its flush, and the timeline its own file.
	if traceFile != nil {
		if chromeSink != nil {
			if err := chromeSink.Close(); err != nil {
				return fmt.Errorf("writing %s: %w", opts.traceOut, err)
			}
		}
		if csvSink != nil {
			if err := csvSink.Close(); err != nil {
				return fmt.Errorf("writing %s: %w", opts.traceOut, err)
			}
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", opts.traceOut, err)
		}
		fmt.Fprintln(os.Stderr, "dreamsim: wrote trace to", opts.traceOut)
	}
	if timeline != nil {
		f, err := os.Create(opts.timelineOut)
		if err != nil {
			return err
		}
		if err := timeline.WriteCSV(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing %s: %w", opts.timelineOut, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", opts.timelineOut, err)
		}
		fmt.Fprintf(os.Stderr, "dreamsim: wrote %d timeline samples to %s\n", len(timeline.Samples()), opts.timelineOut)
		fmt.Print(timeline.Summary("Timeline (virtual-time weighted)"))
	}

	cols := []string{"Strategy", "done", "unfinished", "mean wait", "p95 wait", "turnaround",
		"reconfigs", "reuses", "fallbacks", "gpp util", "fpga util"}
	if fspec != nil {
		cols = append(cols, "retries", "lost", "mttr", "avail")
	}
	// A replayed trace has its own size and arrivals: name the trace, not
	// the -tasks and -rate flags it did not come from.
	workload := fmt.Sprintf("%d tasks, λ=%.2g/s", tasks, rate)
	if trace != nil {
		workload = fmt.Sprintf("%d tasks from %s", len(trace), filepath.Base(workloadIn))
	}
	tb := report.NewTable(
		fmt.Sprintf("DReAMSim: %s, %d seed(s), %d+%d nodes, queue=%s",
			workload, seeds, gppNodes, hybridNodes, queue),
		cols...)
	for si, s := range strategies {
		var wait, p95, turn, mttr, avail sim.Series
		var done, unfinished, reconfigs, reuses, fallbacks, retries, lost int
		var gppU, fpgaU float64
		for _, m := range perStrategy[si] {
			wait.Observe(m.MeanWait())
			p95.Observe(m.P95Wait())
			turn.Observe(m.MeanTurnaround())
			done += m.Completed
			unfinished += m.Unfinished
			reconfigs += m.Reconfigs
			reuses += m.Reuses
			fallbacks += m.Fallbacks
			retries += m.Retries
			lost += m.TasksLost
			mttr.Observe(m.MeanMTTR())
			avail.Observe(m.Availability())
			gppU += m.Utilization(capability.KindGPP)
			fpgaU += m.Utilization(capability.KindFPGA)
		}
		n := float64(len(perStrategy[si]))
		row := []any{s.Name(), done, unfinished,
			wait.Mean(), p95.Mean(), turn.Mean(),
			reconfigs, reuses, fallbacks,
			fmt.Sprintf("%.1f%%", 100*gppU/n), fmt.Sprintf("%.1f%%", 100*fpgaU/n)}
		if fspec != nil {
			row = append(row, retries, lost,
				fmt.Sprintf("%.3gs", mttr.Mean()), fmt.Sprintf("%.2f%%", 100*avail.Mean()))
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb)
	return nil
}
