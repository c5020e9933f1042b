package reconvirt

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/bio"
	"repro/internal/capability"
	"repro/internal/casestudy"
	"repro/internal/grid"
	"repro/internal/profiler"
	"repro/internal/quipu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/vliw"
)

// --- T1: Table I — capability schema and requirement matching ---

// BenchmarkTableI_CapabilityMatch measures ExecReq predicate evaluation
// against a Table I capability set: the inner operation of the matchmaker.
func BenchmarkTableI_CapabilityMatch(b *testing.B) {
	dev, err := LookupDevice("XC5VLX220T")
	if err != nil {
		b.Fatal(err)
	}
	set := dev.FPGACaps.Set()
	reqs := task.FPGAFamily("Virtex-5", casestudy.PairalignSlices)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := reqs.SatisfiedBy(set)
		if err != nil || !ok {
			b.Fatal("match failed")
		}
	}
}

// --- T2: Table II — case-study matchmaking ---

// BenchmarkTableII_Matchmaking regenerates the full Table II mapping
// analysis (3 nodes, 4 tasks, all scenarios) per iteration.
func BenchmarkTableII_Matchmaking(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := TableII()
		if err != nil || len(rows) != 4 {
			b.Fatalf("TableII: %v (%d rows)", err, len(rows))
		}
	}
}

// --- F7: application task graph ---

// BenchmarkFig7_TaskGraph builds the Fig. 7 DAG, validates it, and computes
// topological order and the t_estimated critical path.
func BenchmarkFig7_TaskGraph(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := task.Fig7Graph()
		if _, err := g.TopoOrder(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := g.CriticalPath(func(t *task.Task) float64 { return t.EstimatedSeconds }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F8: Seq/Par program execution ---

// BenchmarkFig8_SeqPar parses the paper's Eq. 4 expression and simulates
// its Fig. 8 schedule on a small GPP grid.
func BenchmarkFig8_SeqPar(b *testing.B) {
	spec := grid.GridSpec{
		GPPNodes: 1, GPPsPerNode: 4,
		GPPCaps: capability.GPPCaps{CPUType: "x", MIPS: 10000, OS: "linux", RAMMB: 4096, Cores: 4},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := ParseApp(task.Eq4Source)
		if err != nil {
			b.Fatal(err)
		}
		reg, err := BuildGrid(spec)
		if err != nil {
			b.Fatal(err)
		}
		mm, err := NewMatchmaker(reg, nil)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine(DefaultEngineConfig(), reg, mm)
		if err != nil {
			b.Fatal(err)
		}
		g := NewGraph()
		for _, id := range prog.TaskIDs() {
			if err := g.Add(softwareTask(id)); err != nil {
				b.Fatal(err)
			}
		}
		eng.Submit(0, "bench", g, prog, QoS{})
		m, err := eng.Run(context.Background())
		if err != nil || m.Completed != 6 {
			b.Fatalf("run: %v (%d done)", err, m.Completed)
		}
	}
}

// --- F10: ClustalW profile ---

// BenchmarkFig10_ClustalWProfile runs the profiled ClustalW pipeline on a
// reduced protein family per iteration (the full Fig. 10 workload runs in
// cmd/casestudy).
func BenchmarkFig10_ClustalWProfile(b *testing.B) {
	opts := bio.FamilyOptions{Count: 10, Length: 80, SubstitutionRate: 0.15, IndelRate: 0.02}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Fixed seed: every iteration does identical work. The profile
		// SHAPE is asserted in deterministic tests and cmd/casestudy, not
		// here — wall-clock attribution under benchmark load is noisy at
		// this reduced scale.
		res, err := casestudy.RunFig10(1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Columns <= 0 {
			b.Fatal("no alignment produced")
		}
	}
}

// --- X1: strategy vs arrival rate ---

// BenchmarkDReAMSim_ArrivalSweep sweeps the Poisson arrival rate for the
// first-fit and reconfiguration-aware strategies in the reconfiguration-
// sensitive regime (short hardware tasks, slow configuration port —
// matches cmd/experiments X1).
func BenchmarkDReAMSim_ArrivalSweep(b *testing.B) {
	mkWorkload := func(rate float64) WorkloadSpec {
		ws := grid.DefaultWorkload(200, rate)
		ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
		ws.ShareUserHW = 0.7
		ws.ShareSoftcore = 0
		return ws
	}
	gs := grid.DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4
	for _, strategy := range []sched.Strategy{sched.FirstFit{}, sched.ReconfigAware{}} {
		for _, rate := range []float64{0.5, 2, 5} {
			name := fmt.Sprintf("%s/lambda=%.1f", strategy.Name(), rate)
			b.Run(name, func(b *testing.B) {
				cfg := DefaultEngineConfig()
				cfg.Strategy = strategy
				tc, err := grid.DefaultToolchain()
				if err != nil {
					b.Fatal(err)
				}
				var last *Metrics
				for i := 0; i < b.N; i++ {
					m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 42, Config: cfg, Grid: gs, Workload: mkWorkload(rate), Toolchain: tc})
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				if last != nil {
					b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
					b.ReportMetric(float64(last.Reconfigs), "reconfigs")
					b.ReportMetric(float64(last.Reuses), "reuses")
				}
			})
		}
	}
}

// --- Observability: sink overhead on the hot path ---

// BenchmarkSinkOverhead measures what tracing costs an ArrivalSweep-shaped
// run end to end: no sink at all (the baseline every other sub-benchmark
// is judged against), the Noop sink (pure instrumentation cost), the
// bounded-memory streaming CSV sink, the Chrome trace-event JSON sink,
// and the in-memory Recorder. A fresh sink is built per iteration so
// buffer reuse inside one run — not across runs — is what gets measured.
func BenchmarkSinkOverhead(b *testing.B) {
	ws := grid.DefaultWorkload(200, 2)
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
	ws.ShareUserHW = 0.7
	ws.ShareSoftcore = 0
	gs := grid.DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4
	tc, err := grid.DefaultToolchain()
	if err != nil {
		b.Fatal(err)
	}
	runOnce := func(b *testing.B, sink TraceSink) {
		cfg := DefaultEngineConfig()
		cfg.Strategy = sched.ReconfigAware{}
		cfg.Tracer = sink
		m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 42, Config: cfg, Grid: gs, Workload: ws, Toolchain: tc})
		if err != nil {
			b.Fatal(err)
		}
		if m.Completed == 0 {
			b.Fatal("run completed nothing")
		}
	}
	b.Run("no-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, nil)
		}
	})
	b.Run("noop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, NoopSink{})
		}
	})
	b.Run("streaming-csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := NewStreamingCSV(io.Discard)
			runOnce(b, sink)
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chrome-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := NewChromeTrace(io.Discard)
			runOnce(b, sink)
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, &TraceRecorder{})
		}
	})
}

// --- X2: hybrid vs GPP-only grid ---

// BenchmarkDReAMSim_HybridVsGPP runs the same accelerator-friendly workload
// on a hybrid grid and, software-only, on a GPP-only grid.
func BenchmarkDReAMSim_HybridVsGPP(b *testing.B) {
	ws := grid.DefaultWorkload(100, 0.4)
	ws.ShareUserHW = 0.6
	ws.ShareSoftcore = 0

	b.Run("hybrid", func(b *testing.B) {
		tc, _ := grid.DefaultToolchain()
		var last *Metrics
		for i := 0; i < b.N; i++ {
			m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 11, Config: DefaultEngineConfig(), Grid: grid.DefaultGridSpec(), Workload: ws, Toolchain: tc})
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		if last != nil {
			b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
		}
	})
	b.Run("gpp-only", func(b *testing.B) {
		gs := grid.DefaultGridSpec()
		gs.HybridNodes = 0
		gs.GPPNodes = 4
		var last *Metrics
		for i := 0; i < b.N; i++ {
			gen, err := grid.Generate(sim.NewRNG(11), ws)
			if err != nil {
				b.Fatal(err)
			}
			reg, err := BuildGrid(gs)
			if err != nil {
				b.Fatal(err)
			}
			mm, err := NewMatchmaker(reg, nil)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := NewEngine(DefaultEngineConfig(), reg, mm)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.SubmitWorkload(grid.ToSoftwareOnly(gen)); err != nil {
				b.Fatal(err)
			}
			m, err := eng.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		if last != nil {
			b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
		}
	})
}

// --- X3: reconfiguration-bandwidth sensitivity ---

// BenchmarkDReAMSim_ReconfigSweep sweeps the configuration-port bandwidth.
func BenchmarkDReAMSim_ReconfigSweep(b *testing.B) {
	for _, mbps := range []float64{10, 50, 400, 3200} {
		b.Run(fmt.Sprintf("cfgport=%.0fMBps", mbps), func(b *testing.B) {
			gs := grid.DefaultGridSpec()
			gs.ReconfigMBpsOverride = mbps
			ws := grid.DefaultWorkload(100, 0.6)
			ws.ShareUserHW = 0.5
			tc, _ := grid.DefaultToolchain()
			var last *Metrics
			for i := 0; i < b.N; i++ {
				m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 17, Config: DefaultEngineConfig(), Grid: gs, Workload: ws, Toolchain: tc})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			if last != nil {
				b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
				b.ReportMetric(last.ReconfigSeconds, "reconfig-s-total")
			}
		})
	}
}

// --- X4: partial vs full reconfiguration ---

// BenchmarkDReAMSim_PartialReconfig compares region-level partial
// reconfiguration against full-device configuration loads.
func BenchmarkDReAMSim_PartialReconfig(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "partial"
		if disable {
			name = "full-only"
		}
		b.Run(name, func(b *testing.B) {
			gs := grid.DefaultGridSpec()
			gs.DisablePartialReconfig = disable
			ws := grid.DefaultWorkload(100, 0.6)
			ws.ShareUserHW = 0.5
			tc, _ := grid.DefaultToolchain()
			var last *Metrics
			for i := 0; i < b.N; i++ {
				m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 23, Config: DefaultEngineConfig(), Grid: gs, Workload: ws, Toolchain: tc})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			if last != nil {
				b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
				b.ReportMetric(last.ReconfigSeconds, "reconfig-s-total")
				b.ReportMetric(float64(last.Reuses), "reuses")
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblate_MatchOrdering compares first-fit against best-fit-area
// candidate selection.
func BenchmarkAblate_MatchOrdering(b *testing.B) {
	for _, strategy := range []sched.Strategy{sched.FirstFit{}, sched.BestFitArea{}} {
		b.Run(strategy.Name(), func(b *testing.B) {
			cfg := DefaultEngineConfig()
			cfg.Strategy = strategy
			tc, _ := grid.DefaultToolchain()
			var last *Metrics
			for i := 0; i < b.N; i++ {
				m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 31, Config: cfg, Grid: grid.DefaultGridSpec(), Workload: grid.DefaultWorkload(100, 0.6), Toolchain: tc})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			if last != nil {
				b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
			}
		})
	}
}

// BenchmarkAblate_ConfigReuse compares reuse-first against residency-blind
// first-fit on a design-rotating workload with a slow configuration port,
// where configuration reuse is the dominant lever.
func BenchmarkAblate_ConfigReuse(b *testing.B) {
	ws := grid.DefaultWorkload(200, 2)
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
	ws.ShareUserHW = 0.7
	ws.ShareSoftcore = 0
	gs := grid.DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4
	for _, strategy := range []sched.Strategy{sched.ReuseFirst{}, sched.FirstFit{}} {
		b.Run(strategy.Name(), func(b *testing.B) {
			cfg := DefaultEngineConfig()
			cfg.Strategy = strategy
			tc, _ := grid.DefaultToolchain()
			var last *Metrics
			for i := 0; i < b.N; i++ {
				m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 37, Config: cfg, Grid: gs, Workload: ws, Toolchain: tc})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			if last != nil {
				b.ReportMetric(float64(last.Reuses), "reuses")
				b.ReportMetric(float64(last.Reconfigs), "reconfigs")
				b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
			}
		})
	}
}

// sortedListQueue is the naive event-queue alternative for the ablation: a
// slice kept sorted by insertion.
type sortedListQueue struct {
	times []sim.Time
}

func (q *sortedListQueue) push(t sim.Time) {
	i := 0
	for i < len(q.times) && q.times[i] <= t {
		i++
	}
	q.times = append(q.times, 0)
	copy(q.times[i+1:], q.times[i:])
	q.times[i] = t
}

func (q *sortedListQueue) pop() sim.Time {
	t := q.times[0]
	q.times = q.times[1:]
	return t
}

// timeHeap is the heap-based counterpart over bare times.
type timeHeap []sim.Time

func (h timeHeap) Len() int           { return len(h) }
func (h timeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)        { *h = append(*h, x.(sim.Time)) }
func (h *timeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// BenchmarkAblate_EventQueue compares the binary-heap pending-event set
// against a sorted list at simulator-realistic sizes.
func BenchmarkAblate_EventQueue(b *testing.B) {
	const events = 2048
	rng := sim.NewRNG(5)
	times := make([]sim.Time, events)
	for i := range times {
		times[i] = sim.Time(rng.Float64() * 1000)
	}
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := make(timeHeap, 0, events)
			for _, t := range times {
				heap.Push(&h, t)
			}
			for h.Len() > 0 {
				heap.Pop(&h)
			}
		}
	})
	b.Run("sorted-list", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var q sortedListQueue
			q.times = make([]sim.Time, 0, events)
			for _, t := range times {
				q.push(t)
			}
			for len(q.times) > 0 {
				q.pop()
			}
		}
	})
}

// BenchmarkQueue is the scheduler-seam hold benchmark: with N events
// pending, one operation pops the earliest and pushes a replacement a
// random near-future distance out (the classic DES hold model). It
// compares the binary heap against the timing wheel at three pending-set
// sizes; steady state is allocation-free on both.
func BenchmarkQueue(b *testing.B) {
	impls := []struct {
		name string
		mk   func() EventScheduler
	}{
		{"heap", func() EventScheduler { return NewHeapQueue() }},
		{"wheel", func() EventScheduler { return NewWheelQueue() }},
	}
	for _, size := range []int{1_000, 100_000, 1_000_000} {
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s/pending=%d", impl.name, size), func(b *testing.B) {
				rng := sim.NewRNG(uint64(size))
				holds := make([]sim.Time, 4096)
				for i := range holds {
					holds[i] = sim.Time(rng.Float64() * 2)
				}
				q := impl.mk()
				for i := 0; i < size; i++ {
					q.Push(sim.Time(rng.Float64()*2), 0, "e", nil)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := q.Pop()
					q.Push(e.Time+holds[i&4095], 0, "e", nil)
				}
			})
		}
	}
}

// BenchmarkAblate_GuideTree compares neighbour-joining against UPGMA for
// guide-tree construction and the resulting alignment quality.
func BenchmarkAblate_GuideTree(b *testing.B) {
	seqs, err := bio.GenerateFamily(sim.NewRNG(3), bio.FamilyOptions{
		Count: 12, Length: 100, SubstitutionRate: 0.15, IndelRate: 0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []bio.GuideTreeMethod{bio.GuideNJ, bio.GuideUPGMA} {
		b.Run(string(method), func(b *testing.B) {
			var sp int
			for i := 0; i < b.N; i++ {
				res, err := bio.Align(seqs, nil, bio.Options{GuideTree: method})
				if err != nil {
					b.Fatal(err)
				}
				sp, err = bio.SumOfPairsScore(res.Aligned)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sp), "sum-of-pairs")
		})
	}
}

// --- Sweep engine: worker-pool scaling ---

// sweepBenchSpec is the 32-replica sweep the scaling benchmark and the
// determinism tests share: one reconfiguration-sensitive point replicated
// over 32 split seeds.
func sweepBenchSpec(workers int) SweepSpec {
	ws := grid.DefaultWorkload(200, 2)
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
	ws.ShareUserHW = 0.7
	ws.ShareSoftcore = 0
	gs := grid.DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4
	cfg := DefaultEngineConfig()
	cfg.Strategy = sched.ReconfigAware{}
	return SweepSpec{
		Points:       []SweepPoint{{Config: cfg, Grid: gs, Workload: ws}},
		BaseSeed:     42,
		Replications: 32,
		Workers:      workers,
	}
}

// BenchmarkSweep_Workers runs the same 32-replica sweep serially and with
// one worker per core: the per-replica metrics are byte-identical (seeds
// are split from the base seed, not drawn from a shared stream), so the
// wall-clock ratio of the two sub-benchmarks is pure worker-pool speedup.
func BenchmarkSweep_Workers(b *testing.B) {
	tc, err := grid.DefaultToolchain()
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := sweepBenchSpec(workers)
			spec.Toolchain = tc
			for i := 0; i < b.N; i++ {
				res, err := RunSweep(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res.Replicas {
					if r.Err != nil {
						b.Fatalf("replica %d: %v", r.Replica.Index, r.Err)
					}
				}
				if i == b.N-1 {
					b.ReportMetric(res.Points[0].MeanTurnaround.Mean, "turnaround-s")
					b.ReportMetric(float64(res.Workers), "workers")
				}
			}
		})
	}
}

// --- X6: fault injection and recovery ---

// BenchmarkDReAMSim_FaultSweep measures the fault-tolerant scheduling
// path end to end: a 12-replica sweep under no, moderate, and hostile
// fault regimes. Besides wall-clock (the lease-monitoring overhead), it
// reports the recovery metrics of the last run so regressions in
// availability or task loss are visible in benchmark diffs.
func BenchmarkDReAMSim_FaultSweep(b *testing.B) {
	tc, err := grid.DefaultToolchain()
	if err != nil {
		b.Fatal(err)
	}
	regimes := []struct {
		name      string
		crashRate float64
		seuRate   float64
	}{
		{"no-faults", 0, 0},
		{"moderate", 0.01, 0.02},
		{"hostile", 0.05, 0.08},
	}
	for _, reg := range regimes {
		b.Run(reg.name, func(b *testing.B) {
			var fs *FaultSpec
			if reg.crashRate > 0 || reg.seuRate > 0 {
				f := DefaultFaults()
				f.CrashRate = reg.crashRate
				f.MeanOutageSeconds = 20
				f.SEURate = reg.seuRate
				f.Retry = RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 15}
				fs = &f
			}
			cfg := DefaultEngineConfig()
			cfg.Strategy = sched.ReconfigAware{}
			spec := SweepSpec{
				Points: []SweepPoint{{
					Config:   cfg,
					Grid:     grid.DefaultGridSpec(),
					Workload: grid.DefaultWorkload(150, 1),
					Faults:   fs,
				}},
				BaseSeed:     2012,
				Replications: 12,
				Toolchain:    tc,
			}
			var last *SweepResult
			for i := 0; i < b.N; i++ {
				res, err := RunSweep(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res.Replicas {
					if r.Err != nil {
						b.Fatalf("replica %d: %v", r.Replica.Index, r.Err)
					}
				}
				last = res
			}
			if last != nil {
				p := last.Points[0]
				b.ReportMetric(p.MeanTurnaround.Mean, "turnaround-s")
				b.ReportMetric(p.Retries.Mean, "retries")
				b.ReportMetric(p.TasksLost.Mean, "lost")
				b.ReportMetric(p.Availability.Mean, "availability")
			}
		})
	}
}

// --- Quipu prediction throughput ---

// BenchmarkQuipu_Predict measures the area predictor, which the matchmaker
// calls on every user-defined-hardware candidate evaluation.
func BenchmarkQuipu_Predict(b *testing.B) {
	model := quipu.Default()
	m := quipu.PairalignMetrics()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Profiler overhead ---

// BenchmarkProfiler_EnterLeave measures instrumentation overhead per
// kernel activation.
func BenchmarkProfiler_EnterLeave(b *testing.B) {
	p := profiler.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Enter("kernel")()
	}
}

// --- VLIW instruction-set simulator throughput ---

// BenchmarkVLIW_DotProduct measures the soft-core ISS executing the
// 4-issue dot-product kernel over 1024 elements.
func BenchmarkVLIW_DotProduct(b *testing.B) {
	core, err := RVEX(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	cons := vliw.ConstraintsFor(core.Config().Caps)
	prog, err := vliw.Assemble(`
init:
  ldi r1, #0 ; ldi r10, #0
loop:
  ld r5, r1, #0 ; add r6, r1, r2
  ld r7, r6, #0
  mul r8, r5, r7
  add r10, r10, r8 ; add r1, r1, #1
  slt r9, r1, r2
  brnz r9, loop
  halt
`)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	cpu, err := vliw.NewCPU(cons, 2*n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cpu.Mem[i] = int64(i + 1)
		cpu.Mem[n+i] = 3
	}
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cpu.Regs[2] = n
		st, err := cpu.Run(prog, 10_000_000)
		if err != nil || !st.Halted {
			b.Fatal("kernel failed")
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkAblate_Compaction compares allocation with fabric
// defragmentation against eviction-only, on a fragmentation-heavy stream
// of mixed-size designs over small devices.
func BenchmarkAblate_Compaction(b *testing.B) {
	ws := grid.DefaultWorkload(200, 2)
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
	ws.ShareUserHW = 0.8
	ws.ShareSoftcore = 0
	gs := grid.GridSpec{
		GPPNodes: 1, GPPsPerNode: 2,
		GPPCaps:     grid.DefaultGridSpec().GPPCaps,
		HybridNodes: 2,
		RPEDevices:  []string{"XC5VLX85"}, // small: fragmentation bites
	}
	for _, disable := range []bool{false, true} {
		name := "compaction"
		if disable {
			name = "eviction-only"
		}
		b.Run(name, func(b *testing.B) {
			var last *Metrics
			for i := 0; i < b.N; i++ {
				reg, err := BuildGrid(gs)
				if err != nil {
					b.Fatal(err)
				}
				tc, _ := grid.DefaultToolchain()
				mm, err := NewMatchmaker(reg, tc)
				if err != nil {
					b.Fatal(err)
				}
				mm.DisableCompaction = disable
				eng, err := NewEngine(DefaultEngineConfig(), reg, mm)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := grid.Generate(sim.NewRNG(61), ws)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.SubmitWorkload(gen); err != nil {
					b.Fatal(err)
				}
				m, err := eng.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			if last != nil {
				b.ReportMetric(last.MeanTurnaround(), "turnaround-s")
				b.ReportMetric(float64(last.Reconfigs), "reconfigs")
				b.ReportMetric(float64(last.Compactions), "compaction-moves")
				b.ReportMetric(float64(last.Reuses), "reuses")
			}
		})
	}
}
