package grid

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SweepPoint is one cell of the experiment grid: a named (strategy,
// config, grid, workload) combination that the sweep replicates over every
// seed. Name defaults to the config's strategy name.
type SweepPoint struct {
	Name     string
	Config   Config
	Grid     GridSpec
	Workload WorkloadSpec
	// Faults, when non-nil, injects a deterministic fault schedule into
	// every replica of this point; each replica derives its own schedule
	// from its own seed (see ScenarioSpec.Faults), so workers=1 and
	// workers=N still agree byte for byte. The spec is shared read-only
	// across replicas.
	Faults *faults.Spec
}

// label returns the point's display name.
func (p SweepPoint) label() string {
	if p.Name != "" {
		return p.Name
	}
	if p.Config.Strategy != nil {
		return p.Config.Strategy.Name()
	}
	return "(unnamed)"
}

// SweepSpec describes a parallel experiment sweep: every point × every
// seed is one independent replica, fanned across a bounded worker pool.
//
// Replica seeds come from either the explicit Seeds list or, when it is
// empty, from splitting BaseSeed: replication i uses
// sim.NewRNG(BaseSeed).SplitSeed(i), so the seed of a replica depends only
// on (BaseSeed, i) — never on which worker ran it or in what order. That
// is what makes workers=1 and workers=N produce byte-identical per-replica
// metrics.
type SweepSpec struct {
	// Points are the sweep's experiment-grid cells; at least one.
	Points []SweepPoint
	// Seeds are explicit workload seeds, one replication per entry.
	Seeds []uint64
	// BaseSeed and Replications generate seeds by splitting when Seeds is
	// empty. Replications defaults to 1.
	BaseSeed     uint64
	Replications int
	// Workers bounds the worker pool; 0 or negative means GOMAXPROCS.
	Workers int
	// ReplicaTimeout, when positive, bounds each replica's wall-clock time;
	// a replica that exceeds it reports context.DeadlineExceeded and the
	// sweep moves on. It is the guard against a diverging model.
	ReplicaTimeout time.Duration
	// Toolchain is shared by every replica (it is immutable after
	// construction); nil models a provider without CAD tools.
	Toolchain *hdl.Toolchain
	// Progress, when non-nil, is called once per finished replica, from
	// the worker goroutine that ran it and in completion order (which is
	// nondeterministic with Workers > 1). It must be safe for concurrent
	// use and fast — it sits on the sweep's critical path. Replicas the
	// sweep never started (context cancelled first) get no callback.
	Progress func(ReplicaResult)
	// SinkFactory, when non-nil, builds one trace sink per replica,
	// attached for that replica's run and flushed when it finishes (a
	// flush error surfaces as the replica's error). The factory runs on
	// worker goroutines, so it must be safe for concurrent use; returning
	// nil skips tracing for that replica. Closing the sinks is the
	// caller's job — the factory's closure is the natural place to retain
	// them.
	SinkFactory func(Replica) obs.TraceSink
}

// seeds materializes the replication seed list.
func (s SweepSpec) seeds() []uint64 {
	if len(s.Seeds) > 0 {
		return append([]uint64(nil), s.Seeds...)
	}
	n := s.Replications
	if n <= 0 {
		n = 1
	}
	root := sim.NewRNG(s.BaseSeed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = root.SplitSeed(uint64(i))
	}
	return out
}

// Validate reports impossible sweep specs.
func (s SweepSpec) Validate() error {
	if len(s.Points) == 0 {
		return fmt.Errorf("grid: sweep without points")
	}
	for i, p := range s.Points {
		if err := p.Config.Validate(); err != nil {
			return fmt.Errorf("grid: sweep point %d (%s): %w", i, p.label(), err)
		}
		if err := p.Grid.Validate(); err != nil {
			return fmt.Errorf("grid: sweep point %d (%s): %w", i, p.label(), err)
		}
		if err := p.Workload.Validate(); err != nil {
			return fmt.Errorf("grid: sweep point %d (%s): %w", i, p.label(), err)
		}
		if p.Faults != nil {
			// A zero fault horizon is legal here: RunScenario defaults it
			// from the replica's workload before validating for real.
			f := *p.Faults
			if f.HorizonSeconds <= 0 {
				f.HorizonSeconds = 1
			}
			if err := f.Validate(); err != nil {
				return fmt.Errorf("grid: sweep point %d (%s): %w", i, p.label(), err)
			}
		}
	}
	return nil
}

// Replica identifies one (point × seed) cell of a sweep.
type Replica struct {
	// Index is the replica's position in SweepResult.Replicas; replicas are
	// laid out point-major (point 0's seeds, then point 1's, …).
	Index int
	// Point indexes SweepSpec.Points; Name is that point's label.
	Point int
	Name  string
	// Rep is the replication number within the point; Seed its derived (or
	// explicit) workload seed.
	Rep  int
	Seed uint64
}

// ReplicaResult is one replica's outcome: its metrics on success, or the
// error (cancellation, timeout, model error, or a captured panic) that
// ended it. A timed-out or cancelled replica may carry partial Metrics
// alongside its error.
type ReplicaResult struct {
	Replica Replica
	Metrics *Metrics
	Err     error
}

// PointSummary aggregates one point's successful replicas across seeds
// into mean / stddev / 95%-CI summaries of the headline metrics.
type PointSummary struct {
	Name string
	// Replicas counts the point's replicas; Failed those that returned an
	// error (their metrics are excluded from the summaries).
	Replicas int
	Failed   int
	// Per-replica headline metrics, summarized across seeds.
	MeanWait       sim.Summary
	MeanTurnaround sim.Summary
	Makespan       sim.Summary
	Throughput     sim.Summary
	Reconfigs      sim.Summary
	Reuses         sim.Summary
	EnergyJoules   sim.Summary
	// Fault/recovery headline metrics (degenerate summaries when the
	// point injects no faults).
	Retries      sim.Summary
	TasksLost    sim.Summary
	MTTR         sim.Summary
	Availability sim.Summary
}

// SweepResult is a completed (or cancelled) sweep: every replica's result
// in deterministic point-major order plus per-point summaries.
type SweepResult struct {
	Replicas []ReplicaResult
	Points   []PointSummary
	// Elapsed is the sweep's wall-clock duration.
	Elapsed time.Duration
	// Workers is the pool size actually used.
	Workers int
}

// errSkipped marks replicas the sweep never started because the context
// was cancelled first; it is replaced by the context's error.
var errSkipped = fmt.Errorf("grid: replica skipped")

// Sweep fans len(Points) × len(seeds) independent replicas across a
// bounded worker pool and aggregates the results. Each replica builds its
// own registry, matchmaker, and engine from the point's specs, so no
// simulation state is shared between replicas; the only shared inputs are
// the immutable toolchain and the spec itself.
//
// Cancellation: when ctx is cancelled (or times out) the sweep stops
// handing out new replicas, in-flight replicas stop at their next
// event-loop context check, and Sweep returns the partial SweepResult
// TOGETHER with the context's error. Replicas that never started carry the
// context's error too. A panicking replica is captured and reported as
// that replica's error; it does not kill the sweep.
func Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background() //reconlint:allow ctxflow documented nil-ctx fallback of the public Sweep API
	}
	start := time.Now() //reconlint:allow detrand sweep wall-clock timing never feeds simulation state
	seeds := spec.seeds()

	replicas := make([]Replica, 0, len(spec.Points)*len(seeds))
	for pi, p := range spec.Points {
		for ri, seed := range seeds {
			replicas = append(replicas, Replica{
				Index: len(replicas), Point: pi, Name: p.label(), Rep: ri, Seed: seed,
			})
		}
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(replicas) {
		workers = len(replicas)
	}

	results := make([]ReplicaResult, len(replicas))
	for i := range results {
		results[i] = ReplicaResult{Replica: replicas[i], Err: errSkipped}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runReplica(ctx, spec, replicas[i])
				if spec.Progress != nil {
					spec.Progress(results[i])
				}
			}
		}()
	}
feed:
	for i := range replicas {
		select {
		case <-ctx.Done():
			break feed
		case work <- i:
		}
	}
	close(work)
	wg.Wait()

	for i := range results {
		if results[i].Err == errSkipped {
			if err := ctx.Err(); err != nil {
				results[i].Err = err
			} else {
				// Unreachable unless a worker died without writing; keep the
				// marker explicit rather than reporting false success.
				results[i].Err = fmt.Errorf("grid: replica %d never ran", i)
			}
		}
	}

	out := &SweepResult{
		Replicas: results,
		Points:   summarize(spec.Points, results),
		Elapsed:  time.Since(start), //reconlint:allow detrand sweep wall-clock timing never feeds simulation state
		Workers:  workers,
	}
	return out, ctx.Err()
}

// runReplica executes one replica end to end, converting panics into
// errors so one diverging model cannot kill the sweep.
func runReplica(ctx context.Context, spec SweepSpec, r Replica) (out ReplicaResult) {
	out.Replica = r
	defer func() {
		if p := recover(); p != nil {
			out.Metrics = nil
			out.Err = fmt.Errorf("grid: replica %d (%s, seed %#x) panicked: %v\n%s",
				r.Index, r.Name, r.Seed, p, debug.Stack())
		}
	}()
	rctx := ctx
	if spec.ReplicaTimeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, spec.ReplicaTimeout)
		defer cancel()
	}
	p := spec.Points[r.Point]
	scenario := ScenarioSpec{
		Seed:      r.Seed,
		Config:    p.Config,
		Grid:      p.Grid,
		Workload:  p.Workload,
		Toolchain: spec.Toolchain,
		Faults:    p.Faults,
	}
	if spec.SinkFactory != nil {
		if sink := spec.SinkFactory(r); sink != nil {
			scenario.Config.Tracer = obs.Multi(scenario.Config.Tracer, sink)
			defer func() {
				if err := sink.Flush(); err != nil && out.Err == nil {
					out.Err = fmt.Errorf("grid: replica %d (%s, seed %#x) sink flush: %w",
						r.Index, r.Name, r.Seed, err)
				}
			}()
		}
	}
	out.Metrics, out.Err = RunScenario(rctx, scenario)
	return out
}

// summarize folds successful replicas into per-point summaries.
func summarize(points []SweepPoint, results []ReplicaResult) []PointSummary {
	out := make([]PointSummary, len(points))
	obs := make([]map[string][]float64, len(points))
	for i, p := range points {
		out[i].Name = p.label()
		obs[i] = map[string][]float64{}
	}
	for _, r := range results {
		s := &out[r.Replica.Point]
		s.Replicas++
		if r.Err != nil || r.Metrics == nil {
			s.Failed++
			continue
		}
		o := obs[r.Replica.Point]
		m := r.Metrics
		o["wait"] = append(o["wait"], m.MeanWait())
		o["turnaround"] = append(o["turnaround"], m.MeanTurnaround())
		o["makespan"] = append(o["makespan"], float64(m.Makespan))
		o["throughput"] = append(o["throughput"], m.Throughput())
		o["reconfigs"] = append(o["reconfigs"], float64(m.Reconfigs))
		o["reuses"] = append(o["reuses"], float64(m.Reuses))
		o["energy"] = append(o["energy"], m.EnergyJoules())
		o["retries"] = append(o["retries"], float64(m.Retries))
		o["lost"] = append(o["lost"], float64(m.TasksLost))
		o["mttr"] = append(o["mttr"], m.MeanMTTR())
		o["avail"] = append(o["avail"], m.Availability())
	}
	for i := range out {
		o := obs[i]
		out[i].MeanWait = sim.Summarize(o["wait"])
		out[i].MeanTurnaround = sim.Summarize(o["turnaround"])
		out[i].Makespan = sim.Summarize(o["makespan"])
		out[i].Throughput = sim.Summarize(o["throughput"])
		out[i].Reconfigs = sim.Summarize(o["reconfigs"])
		out[i].Reuses = sim.Summarize(o["reuses"])
		out[i].EnergyJoules = sim.Summarize(o["energy"])
		out[i].Retries = sim.Summarize(o["retries"])
		out[i].TasksLost = sim.Summarize(o["lost"])
		out[i].MTTR = sim.Summarize(o["mttr"])
		out[i].Availability = sim.Summarize(o["avail"])
	}
	return out
}
