package grid

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/jss"
	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
)

// traceTally is the event-stream recomputation of the Metrics counters:
// every counter here has exactly one emission site in the engine, so on
// a drained run the two accountings must agree exactly. A divergence
// means an instrumented path stopped emitting (or a counter stopped
// counting) — the bug class this differential test exists to catch.
type traceTally struct {
	queued, reconfig, complete, fail, lost, retry     int
	nodeDown, nodeUp, seu, linkDegraded, leaseExpired int
	tasks                                             map[string]bool
}

func tallyTrace(events []obs.Event) traceTally {
	tt := traceTally{tasks: map[string]bool{}}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindQueued:
			tt.queued++
			tt.tasks[ev.TaskID.String()] = true
		case obs.KindReconfig:
			tt.reconfig++
		case obs.KindComplete:
			tt.complete++
		case obs.KindFail:
			tt.fail++
		case obs.KindLost:
			tt.lost++
		case obs.KindRetry:
			tt.retry++
		case obs.KindNodeDown:
			tt.nodeDown++
		case obs.KindNodeUp:
			tt.nodeUp++
		case obs.KindSEU:
			tt.seu++
		case obs.KindLinkDegraded:
			tt.linkDegraded++
		case obs.KindLeaseExpired:
			tt.leaseExpired++
		}
	}
	return tt
}

// differentialRegimes are the fault environments the trace-vs-metrics
// property is checked under: a clean run, the golden trace's moderate
// spec, and the determinism suite's hostile spec.
func differentialRegimes() map[string]*faults.Spec {
	moderate := faults.Default()
	moderate.CrashRate = 0.05
	moderate.MeanOutageSeconds = 12
	moderate.SEURate = 0.05
	moderate.LinkFaultRate = 0.03
	moderate.MeanLinkFaultSeconds = 15
	moderate.LeaseTTLSeconds = 2
	moderate.Retry = faults.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 8}
	return map[string]*faults.Spec{
		"no-faults": nil,
		"moderate":  &moderate,
		"hostile":   hostileFaults(),
	}
}

// TestTraceMetricsDifferential recomputes the run's headline counters
// from the raw event stream for every strategy under every fault regime
// and cross-checks them against the engine's own Metrics.
//
//scenario:differential strategy=all regime=none,moderate,hostile workload=default
func TestTraceMetricsDifferential(t *testing.T) {
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 30
	for regime, fs := range differentialRegimes() {
		for _, strat := range sched.All() {
			regime, fs, strat := regime, fs, strat
			t.Run(regime+"/"+strat.Name(), func(t *testing.T) {
				t.Parallel()
				rec := &obs.Recorder{}
				cfg := DefaultConfig()
				cfg.Strategy = strat
				cfg.SampleEverySeconds = 1
				cfg.Tracer = rec
				m, err := RunScenario(context.Background(), ScenarioSpec{
					Seed:      4242,
					Config:    cfg,
					Grid:      DefaultGridSpec(),
					Workload:  DefaultWorkload(tasks, 1),
					Toolchain: tc,
					Faults:    fs,
				})
				if err != nil {
					t.Fatal(err)
				}
				tt := tallyTrace(rec.Events())
				for _, ck := range []struct {
					name          string
					trace, metric int
				}{
					{"submitted", tt.queued, m.Submitted},
					{"completed", tt.complete, m.Completed},
					{"reconfigs", tt.reconfig, m.Reconfigs},
					{"failures", tt.fail, m.Failures()},
					{"lost", tt.lost, m.TasksLost},
					{"retries", tt.retry, m.Retries},
					{"node crashes", tt.nodeDown, m.NodeCrashes},
					{"node recoveries", tt.nodeUp, m.NodeRecoveries},
					{"seu faults", tt.seu, m.SEUFaults},
					{"link faults", tt.linkDegraded, m.LinkFaults},
					{"lease expiries", tt.leaseExpired, m.LeaseExpiries},
				} {
					if ck.trace != ck.metric {
						t.Errorf("%s: trace says %d, metrics say %d", ck.name, ck.trace, ck.metric)
					}
				}
				// Structural properties of the stream itself.
				if len(tt.tasks) != tasks {
					t.Errorf("trace queued %d distinct tasks, workload has %d", len(tt.tasks), tasks)
				}
				if got := tt.queued - tt.complete - tt.lost; got != m.Unfinished {
					t.Errorf("unfinished from trace = %d, metrics say %d", got, m.Unfinished)
				}
				if regime == "hostile" && tt.nodeDown+tt.seu+tt.linkDegraded == 0 {
					t.Error("hostile regime fired no faults; the differential checked nothing")
				}
			})
		}
	}
}

// TestSamplingDoesNotPerturbRun: the sampler only reads engine state, so
// switching it on must not move a single metric — the full fault
// fingerprint has to match a sampler-free run bit for bit.
func TestSamplingDoesNotPerturbRun(t *testing.T) {
	run := func(sample float64) string {
		cfg := DefaultConfig()
		cfg.SampleEverySeconds = sample
		cfg.Tracer = obs.Noop{}
		m, err := RunScenario(context.Background(), ScenarioSpec{
			Seed:     99,
			Config:   cfg,
			Grid:     DefaultGridSpec(),
			Workload: DefaultWorkload(25, 1),
			Faults:   hostileFaults(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return faultFingerprint(m)
	}
	if with, without := run(0.5), run(0); with != without {
		t.Errorf("sampling changed the run:\nwith:\n%s\nwithout:\n%s", with, without)
	}
}

// TestChromeTraceWorkerIndependence runs the same sweep with one worker
// and with four, each replica streaming its Chrome trace into its own
// buffer, and requires the documents to be byte-identical: pid/tid
// assignment and record order must depend only on the replica's seed,
// never on scheduling of the worker pool.
func TestChromeTraceWorkerIndependence(t *testing.T) {
	render := func(workers int) map[int][]byte {
		var mu sync.Mutex
		sinks := map[int]*obs.Chrome{}
		bufs := map[int]*bytes.Buffer{}
		cfgFF := DefaultConfig()
		cfgRA := DefaultConfig()
		if alt, err := sched.ByName("reconfig-aware"); err == nil {
			cfgRA.Strategy = alt
		}
		spec := SweepSpec{
			Points: []SweepPoint{
				{Name: "first-fit", Config: cfgFF, Grid: DefaultGridSpec(), Workload: DefaultWorkload(15, 1), Faults: hostileFaults()},
				{Name: "alt", Config: cfgRA, Grid: DefaultGridSpec(), Workload: DefaultWorkload(15, 1), Faults: hostileFaults()},
			},
			Seeds:   []uint64{11, 22},
			Workers: workers,
			SinkFactory: func(r Replica) obs.TraceSink {
				var buf bytes.Buffer
				sink := obs.NewChrome(&buf)
				mu.Lock()
				sinks[r.Index] = sink
				bufs[r.Index] = &buf
				mu.Unlock()
				return sink
			},
		}
		res, err := Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range res.Replicas {
			if rr.Err != nil {
				t.Fatalf("replica %d: %v", rr.Replica.Index, rr.Err)
			}
		}
		out := map[int][]byte{}
		for idx, sink := range sinks {
			if err := sink.Close(); err != nil {
				t.Fatalf("closing replica %d sink: %v", idx, err)
			}
			out[idx] = bufs[idx].Bytes()
		}
		return out
	}
	serial := render(1)
	parallel := render(4)
	if len(serial) != len(parallel) || len(serial) == 0 {
		t.Fatalf("replica counts differ: %d vs %d", len(serial), len(parallel))
	}
	for idx, want := range serial {
		got, ok := parallel[idx]
		if !ok {
			t.Errorf("replica %d missing from parallel sweep", idx)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica %d: chrome trace differs between workers=1 (%d bytes) and workers=4 (%d bytes)",
				idx, len(want), len(got))
		}
		if len(want) < 20 {
			t.Errorf("replica %d produced a suspiciously small trace (%d bytes)", idx, len(want))
		}
	}
}

// TestSweepProgressCallback: the Progress hook must fire exactly once
// per replica, with that replica's own result.
func TestSweepProgressCallback(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	spec := SweepSpec{
		Points: []SweepPoint{
			{Name: "p", Config: DefaultConfig(), Grid: DefaultGridSpec(), Workload: DefaultWorkload(10, 1)},
		},
		Seeds:   []uint64{1, 2, 3},
		Workers: 3,
		Progress: func(rr ReplicaResult) {
			mu.Lock()
			seen[rr.Replica.Index]++
			mu.Unlock()
			if rr.Err == nil && rr.Metrics == nil {
				t.Error("progress callback without metrics or error")
			}
		},
	}
	res, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Replicas) {
		t.Fatalf("progress fired for %d of %d replicas", len(seen), len(res.Replicas))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("replica %d reported %d times", idx, n)
		}
	}
}

// TestSchedulerDifferentialGolden swaps the simulator's pending-event
// set under the pinned golden fault scenario: the heap and the timing
// wheel implement the same (Time, Priority, seq) total order, so every
// recorded event, every gauge sample, and the full metrics fingerprint
// must match exactly — the queue is a performance seam, never a
// semantics seam.
//
//scenario:differential strategy=reconfig-aware regime=moderate workload=default
func TestSchedulerDifferentialGolden(t *testing.T) {
	run := func(mk func() sim.Scheduler) (*Metrics, []obs.Event, []obs.Sample) {
		rec, tl := &obs.Recorder{}, obs.NewTimeline()
		spec := goldenFaultScenario(rec, tl)
		spec.Config.Scheduler = mk
		m, err := RunScenario(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return m, rec.Events(), tl.Samples()
	}
	hm, hev, hsa := run(func() sim.Scheduler { return sim.NewHeapQueue() })
	wm, wev, wsa := run(func() sim.Scheduler { return sim.NewWheelQueue() })
	if !reflect.DeepEqual(hm, wm) {
		t.Errorf("metrics diverge across schedulers:\nheap:  %+v\nwheel: %+v", hm, wm)
	}
	if len(hev) != len(wev) {
		t.Fatalf("event counts diverge: heap %d, wheel %d", len(hev), len(wev))
	}
	for i := range hev {
		if hev[i] != wev[i] {
			t.Fatalf("event %d diverges:\nheap:  %+v\nwheel: %+v", i, hev[i], wev[i])
		}
	}
	if !reflect.DeepEqual(hsa, wsa) {
		t.Error("gauge samples diverge across schedulers")
	}
	// A default-config run (scheduler unset) must match too: the default
	// is one of the two, not a third behavior.
	rec := &obs.Recorder{}
	m, err := RunScenario(context.Background(), goldenFaultScenario(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, wm) {
		t.Error("default-scheduler metrics diverge from the explicit wheel run")
	}
	if !reflect.DeepEqual(rec.Events(), wev) {
		t.Error("default-scheduler events diverge from the explicit wheel run")
	}
}

// TestShuffledTraceMatchesSortedCopy: SubmitWorkload runs a trace in
// (Arrival, index) order, so a trace whose arrivals are out of order
// gives the same metrics, trace events and gauge samples as its stably
// sorted copy, with and without faults. Arrivals are cut to whole
// seconds so that ties, which the index settles, are common.
func TestShuffledTraceMatchesSortedCopy(t *testing.T) {
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := Generate(sim.NewRNG(31), DefaultWorkload(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range shuffled {
		shuffled[i].Arrival = sim.Time(math.Floor(float64(shuffled[i].Arrival)))
	}
	r := sim.NewRNG(32)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	sorted := slices.Clone(shuffled)
	slices.SortStableFunc(sorted, func(a, b Generated) int { return cmp.Compare(a.Arrival, b.Arrival) })
	if slices.EqualFunc(sorted, shuffled, func(a, b Generated) bool { return a.ID == b.ID }) {
		t.Fatal("the shuffle left the trace sorted; the test would not reach the permutation")
	}
	run := func(trace []Generated, fs *faults.Spec) (*Metrics, *obs.Recorder, *obs.Timeline) {
		rec, tl := &obs.Recorder{}, obs.NewTimeline()
		cfg := DefaultConfig()
		cfg.SampleEverySeconds = 1
		cfg.Tracer = obs.Multi(rec, tl)
		m, err := RunScenario(context.Background(), ScenarioSpec{
			Seed: 33, Config: cfg, Grid: DefaultGridSpec(), Trace: trace, Toolchain: tc, Faults: fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, rec, tl
	}
	for regime, fs := range differentialRegimes() {
		t.Run(regime, func(t *testing.T) {
			sm, srec, stl := run(sorted, fs)
			um, urec, utl := run(shuffled, fs)
			if !reflect.DeepEqual(sm, um) {
				t.Errorf("metrics diverge:\nsorted:   %+v\nshuffled: %+v", sm, um)
			}
			if !reflect.DeepEqual(srec.Events(), urec.Events()) {
				t.Error("trace events diverge")
			}
			if !reflect.DeepEqual(stl.Samples(), utl.Samples()) {
				t.Error("gauge samples diverge")
			}
		})
	}
}

// scheduleEachFault is the reference fault feed: one Schedule call per
// fault, in slice order, each fault captured in its own closure.
func scheduleEachFault(e *Engine, evs []faults.Event) {
	for _, ev := range evs {
		e.S.Schedule(ev.Time, "fault", func() { e.applyFault(ev) })
	}
}

// TestStreamedFaultsMatchScheduledFaults: InjectFaults streams a fault
// timeline in (Time, index) order, so a run must match the reference
// that schedules one event per fault at the same point: equal metrics,
// trace events and gauge samples. The timelines are sorted, shuffled,
// and cut to whole seconds (tied, in order and shuffled), where faults
// tie with each other and with the whole-second arrivals of workload
// tasks and Submit applications. Faults go in before or after those
// submissions, under the moderate and the hostile spec, with the run
// drained or cut by a horizon.
func TestStreamedFaultsMatchScheduledFaults(t *testing.T) {
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(sim.NewRNG(51), DefaultWorkload(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range gen {
		gen[i].Arrival = sim.Time(math.Floor(float64(gen[i].Arrival)))
	}
	apps, err := GenerateApps(sim.NewRNG(52), AppSpec{Apps: 4, MinTasks: 2, MaxTasks: 4, EdgeProb: 0.5, Base: DefaultWorkload(1, 0.2)})
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := BuildGrid(DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var nodeIDs []string
	for _, n := range nodes.Nodes() {
		nodeIDs = append(nodeIDs, n.ID)
	}
	type result struct {
		m       *Metrics
		events  []obs.Event
		samples []obs.Sample
	}
	run := func(fs *faults.Spec, evs []faults.Event, inject func(*Engine, []faults.Event), faultsFirst bool, horizon sim.Time) result {
		reg, err := BuildGrid(DefaultGridSpec())
		if err != nil {
			t.Fatal(err)
		}
		mm, err := rms.NewMatchmaker(reg, tc)
		if err != nil {
			t.Fatal(err)
		}
		rec, tl := &obs.Recorder{}, obs.NewTimeline()
		cfg := DefaultConfig()
		cfg.Faults, cfg.Horizon = fs, horizon
		cfg.SampleEverySeconds = 1
		cfg.Tracer = obs.Multi(rec, tl)
		eng, err := NewEngine(cfg, reg, mm)
		if err != nil {
			t.Fatal(err)
		}
		if faultsFirst {
			inject(eng, evs)
		}
		for _, app := range apps {
			eng.Submit(sim.Time(math.Floor(float64(app.Arrival))), "alice", app.Graph, nil, jss.QoS{})
		}
		if err := eng.SubmitWorkload(gen); err != nil {
			t.Fatal(err)
		}
		if !faultsFirst {
			inject(eng, evs)
		}
		m, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return result{m, rec.Events(), tl.Samples()}
	}
	for regime, spec := range differentialRegimes() {
		if spec == nil {
			continue
		}
		fs := *spec
		fs.HorizonSeconds = 150
		sorted, err := faults.Schedule(sim.NewRNG(53).Split(faults.ScheduleStream), fs, nodeIDs)
		if err != nil {
			t.Fatal(err)
		}
		shuffle := func(evs []faults.Event) []faults.Event {
			out, r := slices.Clone(evs), sim.NewRNG(54)
			for i := len(out) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				out[i], out[j] = out[j], out[i]
			}
			return out
		}
		tied := slices.Clone(sorted)
		for i := range tied {
			tied[i].Time = sim.Time(math.Floor(float64(tied[i].Time)))
		}
		if !slices.ContainsFunc(tied, func(ev faults.Event) bool {
			return slices.ContainsFunc(gen, func(g Generated) bool { return g.Arrival == ev.Time })
		}) {
			t.Fatalf("%s: no whole-second fault ties with an arrival; the test would not reach a tie", regime)
		}
		timelines := map[string][]faults.Event{
			"sorted": sorted, "shuffled": shuffle(sorted), "tied": tied, "tied-shuffled": shuffle(tied),
		}
		for name, evs := range timelines {
			for _, faultsFirst := range []bool{true, false} {
				for _, horizon := range []sim.Time{0, 40} {
					want := run(&fs, evs, scheduleEachFault, faultsFirst, horizon)
					got := run(&fs, evs, (*Engine).InjectFaults, faultsFirst, horizon)
					label := fmt.Sprintf("%s/%s/faults-first=%v/horizon=%v", regime, name, faultsFirst, horizon)
					if want.m.NodeCrashes+want.m.SEUFaults+want.m.LinkFaults == 0 {
						t.Fatalf("%s: no fault applied; the differential checks nothing", label)
					}
					if !reflect.DeepEqual(want.m, got.m) {
						t.Errorf("%s: metrics diverge:\nscheduled: %+v\nstreamed:  %+v", label, want.m, got.m)
					}
					if !reflect.DeepEqual(want.events, got.events) {
						t.Errorf("%s: trace events diverge", label)
					}
					if !reflect.DeepEqual(want.samples, got.samples) {
						t.Errorf("%s: gauge samples diverge", label)
					}
				}
			}
		}
	}
}
