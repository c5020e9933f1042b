package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/hdl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// workloads are the benchmark's workloads, in run order. Each repeats
// identical seeded work in every round; the "why" line is also recorded
// in BENCHMARK.json.
var workloads = []*workload{
	{
		name:  "sim-saturated",
		why:   "arrivals outrun the grid, so every event rescans a long queue and most placements fail: the matchmaker and fabric failure path",
		round: simSaturated.round,
	},
	{
		name:  "sim-reuse",
		why:   "short hardware tasks on a slow config port: short queue, configuration reuse and a large heap, the event core without the failure path",
		round: simReuse.round,
	},
	{
		name:  "sim-faults",
		why:   "hostile crash, SEU and outage faults with bounded retries: lease renewals, node detach and re-dispatch dominate the event mix",
		round: simFaults.round,
	},
	{
		name:  "rmsd-steady",
		why:   "64 tenants on 2 connections, open loop at 10,000 submits/s then closed loop: wire decode, shard dispatch and per-task tenant steps",
		round: rmsdSteady.round,
	},
	{
		name:  "rmsd-fanout",
		why:   "10,000 tenants x 10 tasks in a closed loop: every first contact builds a tenant stack, so per-tenant cost dominates",
		round: rmsdFanout.round,
	},
}

// simShape is one sim workload: a batch of scenarios, each a
// pre-generated task trace run through grid.RunScenario.
type simShape struct {
	// scenarios per round, and toyScenarios/toyTasks when env.toy is set
	// (the tests' smoke runs).
	scenarios, toyScenarios, toyTasks int
	workload                          grid.WorkloadSpec
	grid                              grid.GridSpec
	faults                            *faults.Spec
}

// simSaturated: the default grid under arrivals it cannot keep up with
// (λ = 1/s against a grid that serves well under that), so the waiting
// queue grows long and each event retries placement down the queue.
var simSaturated = simShape{
	scenarios: 12, toyScenarios: 2, toyTasks: 40,
	workload: grid.DefaultWorkload(300, 1),
	grid:     grid.DefaultGridSpec(),
}

// simReuse: the arrival-sweep shape at λ = 2/s — short hardware tasks over
// a 4 MB/s configuration port — at 10^5 tasks in one scenario.
var simReuse = func() simShape {
	ws := grid.DefaultWorkload(100_000, 2)
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
	ws.ShareUserHW = 0.7
	ws.ShareSoftcore = 0
	gs := grid.DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4
	return simShape{scenarios: 1, toyScenarios: 1, toyTasks: 2000, workload: ws, grid: gs}
}()

// simFaults: the fault sweep's hostile regime over a lightly loaded grid.
var simFaults = func() simShape {
	f := faults.Default()
	f.CrashRate = 0.05
	f.MeanOutageSeconds = 20
	f.SEURate = 0.08
	f.Retry = faults.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 15}
	return simShape{
		scenarios: 24, toyScenarios: 2, toyTasks: 40,
		workload: grid.DefaultWorkload(300, 0.1),
		grid:     grid.DefaultGridSpec(),
		faults:   &f,
	}
}()

// simInputs are what a sim round's set-up makes: the toolchain and, per
// scenario, its seed and its task trace.
type simInputs struct {
	tc     *hdl.Toolchain
	seeds  []uint64
	traces [][]grid.Generated
}

// inputs builds the toolchain and generates the round's traces. Scenario
// i uses seed SplitSeed(i) of the run's seed, for its trace and for its
// fault schedule.
func (s simShape) inputs(seed uint64, toy bool) (simInputs, error) {
	n, ws := s.scenarios, s.workload
	if toy {
		n, ws.Tasks = s.toyScenarios, s.toyTasks
	}
	tc, err := grid.DefaultToolchain()
	if err != nil {
		return simInputs{}, err
	}
	in := simInputs{tc: tc, seeds: make([]uint64, n), traces: make([][]grid.Generated, n)}
	root := sim.NewRNG(seed)
	for i := range in.traces {
		in.seeds[i] = root.SplitSeed(uint64(i))
		if in.traces[i], err = grid.Generate(sim.NewRNG(in.seeds[i]), ws); err != nil {
			return simInputs{}, err
		}
	}
	return in, nil
}

// round makes the round's inputs (set-up), then runs every scenario and
// checks its outputs.
func (s simShape) round(e *env) (*round, error) {
	in, setupS, err := repeatSetup(func() (simInputs, error) { return s.inputs(e.seed, e.toy) }, func(simInputs) error { return nil })
	if err != nil {
		return nil, err
	}
	tc, seeds, traces := in.tc, in.seeds, in.traces
	r := &round{setupS: setupS, layer: map[string]float64{}}

	cfg := grid.DefaultConfig()
	var probe *simProbe
	var sink *countSink
	if e.kind == traced {
		probe = &simProbe{log: e.log}
		sink = newCountSink()
		cfg.Scheduler = probe.queue
		cfg.Strategy = probedStrategy{inner: cfg.Strategy, p: probe}
		cfg.Tracer = sink
	}

	var tot struct {
		submitted, completed, unfinished, lost   int
		reconfigs, reuses, compactions, expiries int
		turnaroundSum                            float64
	}
	h := fnv.New64a()
	if err := e.begin(); err != nil {
		return nil, err
	}
	for i := range traces {
		var span int64
		if probe != nil {
			span = e.log.begin("scenario", "RunScenario", int64(i+1), e.log.now())
		}
		start := time.Now()
		m, err := grid.RunScenario(context.Background(), grid.ScenarioSpec{
			Seed: seeds[i], Config: cfg, Grid: s.grid, Trace: traces[i], Toolchain: tc, Faults: s.faults,
		})
		d := time.Since(start)
		if probe != nil {
			t := e.log.now()
			probe.closeHandler(t)
			e.log.end(span, t)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		r.busyS += d.Seconds()
		r.latMS = append(r.latMS, float64(d)/1e6)
		if m.Submitted != len(traces[i]) {
			r.violate("scenario %d: %d tasks submitted, trace has %d", i, m.Submitted, len(traces[i]))
		}
		if m.Submitted != m.Completed+m.Unfinished+m.TasksLost {
			r.violate("scenario %d: conservation: submitted %d != completed %d + unfinished %d + lost %d",
				i, m.Submitted, m.Completed, m.Unfinished, m.TasksLost)
		}
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %x\n", m.Submitted, m.Completed, m.Unfinished, m.TasksLost,
			m.Reconfigs, m.Reuses, m.Retries, math.Float64bits(m.MeanTurnaround()))
		tot.submitted += m.Submitted
		tot.completed += m.Completed
		tot.unfinished += m.Unfinished
		tot.lost += m.TasksLost
		tot.reconfigs += m.Reconfigs
		tot.reuses += m.Reuses
		tot.compactions += m.Compactions
		tot.expiries += m.LeaseExpiries
		tot.turnaroundSum += m.MeanTurnaround() * float64(m.Turnaround.N())
	}
	if err := e.end(r); err != nil {
		return nil, err
	}
	r.digest = fmt.Sprintf("%016x", h.Sum64())
	tasks := float64(tot.submitted)
	r.tasks, r.attempted = tasks, tot.submitted

	r.turnaroundS = ratio(tot.turnaroundSum, float64(tot.completed))
	r.layer["model.failed_share"] = ratio(float64(tot.lost+tot.unfinished), tasks)
	r.layer["fabric.reconfigs_per_task"] = ratio(float64(tot.reconfigs), tasks)
	r.layer["fabric.reuse_ratio"] = ratio(float64(tot.reuses), float64(tot.reuses+tot.reconfigs))
	r.layer["fabric.compaction_moves_per_task"] = ratio(float64(tot.compactions), tasks)
	r.layer["faults.lease_expiries_per_task"] = ratio(float64(tot.expiries), tasks)
	if probe != nil {
		dispatches := float64(sink.count(obs.KindDispatch))
		events := float64(probe.events)
		calls := float64(probe.chooseCalls)
		r.layer["sim.events_per_task"] = ratio(events, tasks)
		r.layer["sim.queue_ns_per_event"] = ratio(float64(probe.queueNs), events)
		r.layer["sim.cancels_per_task"] = ratio(float64(probe.cancels), tasks)
		r.layer["sim.handler_ns_per_event"] = ratio(float64(probe.handlerNs), events)
		r.layer["sched.choose_calls_per_task"] = ratio(calls, tasks)
		r.layer["sched.choose_ns_per_call"] = ratio(float64(probe.chooseNs), calls)
		r.layer["sched.options_per_choose"] = ratio(float64(probe.options), calls)
		r.layer["rms.place_attempts_per_dispatch"] = ratio(float64(probe.choosePicked), dispatches)
		r.layer["faults.dispatches_per_task"] = ratio(dispatches, tasks)
	}
	return r, nil
}
