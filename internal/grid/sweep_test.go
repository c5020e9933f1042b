package grid

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// sweepTestSpec is a small but non-trivial sweep: two strategies, split
// seeds, hardware-heavy workload on a slow configuration port.
func sweepTestSpec(t *testing.T, workers int) SweepSpec {
	t.Helper()
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	gs := DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4
	ws := DefaultWorkload(40, 2)
	ws.ShareUserHW = 0.5
	var points []SweepPoint
	for _, s := range []sched.Strategy{sched.FirstFit{}, sched.ReconfigAware{}} {
		cfg := DefaultConfig()
		cfg.Strategy = s
		points = append(points, SweepPoint{Config: cfg, Grid: gs, Workload: ws})
	}
	return SweepSpec{
		Points:       points,
		BaseSeed:     42,
		Replications: 4,
		Workers:      workers,
		Toolchain:    tc,
	}
}

// fingerprint reduces one replica's metrics to a string that covers every
// user-visible observation, so two runs can be compared byte for byte.
func fingerprint(m *Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%d unfinished=%d\n", m.Completed, m.Unfinished)
	fmt.Fprintf(&b, "wait=%v\nturnaround=%v\nexec=%v\n", m.Wait.Values(), m.Turnaround.Values(), m.Exec.Values())
	fmt.Fprintf(&b, "makespan=%v reconfigs=%d reconfigS=%v bitstreamMB=%v reuses=%d\n",
		m.Makespan, m.Reconfigs, m.ReconfigSeconds, m.BitstreamMB, m.Reuses)
	fmt.Fprintf(&b, "fallbacks=%d synthS=%v energyJ=%v\n", m.Fallbacks, m.SynthesisSeconds, m.EnergyJoules())
	return b.String()
}

// TestSweepDeterminism is the API's core contract: per-replica metrics are
// a pure function of (point, seed) — the worker count must not change a
// single observation.
func TestSweepDeterminism(t *testing.T) {
	serial, err := Sweep(context.Background(), sweepTestSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(context.Background(), sweepTestSpec(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Replicas) != 8 || len(parallel.Replicas) != len(serial.Replicas) {
		t.Fatalf("replica counts: serial=%d parallel=%d", len(serial.Replicas), len(parallel.Replicas))
	}
	for i := range serial.Replicas {
		s, p := serial.Replicas[i], parallel.Replicas[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("replica %d errors: serial=%v parallel=%v", i, s.Err, p.Err)
		}
		if s.Replica != p.Replica {
			t.Fatalf("replica %d identity differs: %+v vs %+v", i, s.Replica, p.Replica)
		}
		if fs, fp := fingerprint(s.Metrics), fingerprint(p.Metrics); fs != fp {
			t.Errorf("replica %d (%s seed %#x) metrics differ between workers=1 and workers=8:\n--- serial ---\n%s--- parallel ---\n%s",
				i, s.Replica.Name, s.Replica.Seed, fs, fp)
		}
	}
	// Same-point replicas must see distinct split seeds.
	seen := map[uint64]bool{}
	for _, r := range serial.Replicas[:4] {
		if seen[r.Replica.Seed] {
			t.Fatalf("duplicate split seed %#x", r.Replica.Seed)
		}
		seen[r.Replica.Seed] = true
	}
}

// TestSweepCancellation: a cancelled context stops the sweep promptly and
// the partial result is returned together with the context's error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts: nothing may run
	start := time.Now()
	res, err := Sweep(ctx, sweepTestSpec(t, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled sweep took %v", elapsed)
	}
	if res == nil {
		t.Fatal("cancelled sweep returned no partial result")
	}
	if len(res.Replicas) != 8 {
		t.Fatalf("replicas = %d", len(res.Replicas))
	}
	for i, r := range res.Replicas {
		if r.Err == nil {
			continue // a worker may have grabbed a replica before noticing
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("replica %d err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// cancelOnEmit is a trace sink that cancels the sweep at the first
// event its replica emits, so the cancel lands while that replica runs.
type cancelOnEmit struct {
	obs.Noop
	cancel  context.CancelFunc
	emitted *atomic.Int64
}

func (c cancelOnEmit) Emit(obs.Event) {
	if c.emitted.Add(1) == 1 {
		c.cancel()
	}
}

// TestSweepCancelMidReplica: cancelling the sweep while a replica runs
// stops that replica at its next event-loop context check with
// context.Canceled; it does not run to completion. The loop polls the
// context every few hundred events, so the replicas here are long
// enough to reach a poll after the cancel.
func TestSweepCancelMidReplica(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted atomic.Int64
	spec := sweepTestSpec(t, 1)
	for i := range spec.Points {
		spec.Points[i].Workload.Tasks = 400
	}
	spec.SinkFactory = func(r Replica) obs.TraceSink {
		if r.Index != 0 {
			return nil
		}
		return cancelOnEmit{cancel: cancel, emitted: &emitted}
	}
	res, err := Sweep(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep err = %v, want context.Canceled", err)
	}
	if emitted.Load() == 0 {
		t.Fatal("replica 0 emitted nothing: the cancel never landed mid-run")
	}
	if r := res.Replicas[0]; !errors.Is(r.Err, context.Canceled) {
		t.Errorf("replica 0 err = %v after %d events, want context.Canceled", r.Err, emitted.Load())
	}
}

// TestSweepSeedsFollowBaseSeed: replica seeds are split from BaseSeed,
// so two base seeds give two disjoint sets of replica seeds.
func TestSweepSeedsFollowBaseSeed(t *testing.T) {
	a := SweepSpec{BaseSeed: 42, Replications: 4}.seeds()
	b := SweepSpec{BaseSeed: 43, Replications: 4}.seeds()
	seen := map[uint64]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for i, s := range b {
		if seen[s] {
			t.Errorf("replica %d seed %#x appears under both base seeds", i, s)
		}
	}
}

// TestSweepReplicaTimeout: an already-expired per-replica deadline stops
// each replica at its first event-loop context check and reports
// DeadlineExceeded, while the sweep itself completes without error.
func TestSweepReplicaTimeout(t *testing.T) {
	spec := sweepTestSpec(t, 4)
	spec.ReplicaTimeout = time.Nanosecond
	res, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("sweep err = %v (replica timeouts must not fail the sweep)", err)
	}
	for i, r := range res.Replicas {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("replica %d err = %v, want context.DeadlineExceeded", i, r.Err)
		}
	}
	for _, p := range res.Points {
		if p.Failed != p.Replicas {
			t.Errorf("point %s: %d/%d failed, want all", p.Name, p.Failed, p.Replicas)
		}
	}
}

// panicStrategy panics on its first placement decision.
type panicStrategy struct{}

func (panicStrategy) Name() string { return "panic" }

func (panicStrategy) Choose([]sched.Option) int { panic("deliberate test panic") }

// TestSweepPanicCapture: a panicking replica is reported as that replica's
// error; it does not kill the sweep or the process.
func TestSweepPanicCapture(t *testing.T) {
	spec := sweepTestSpec(t, 2)
	bad := spec.Points[0]
	bad.Name = "panicker"
	bad.Config.Strategy = panicStrategy{}
	spec.Points = append(spec.Points, bad)
	res, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var panicked, succeeded int
	for _, r := range res.Replicas {
		switch {
		case r.Replica.Name == "panicker":
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
				t.Errorf("panicker replica err = %v, want captured panic", r.Err)
			} else {
				panicked++
			}
		case r.Err == nil:
			succeeded++
		default:
			t.Errorf("healthy replica %s failed: %v", r.Replica.Name, r.Err)
		}
	}
	if panicked == 0 || succeeded == 0 {
		t.Fatalf("panicked=%d succeeded=%d, want both nonzero", panicked, succeeded)
	}
}

// TestSweepValidate rejects empty and broken specs.
func TestSweepValidate(t *testing.T) {
	if _, err := Sweep(context.Background(), SweepSpec{}); err == nil {
		t.Error("empty sweep accepted")
	}
	spec := SweepSpec{Points: []SweepPoint{{}}}
	if _, err := Sweep(context.Background(), spec); err == nil {
		t.Error("zero-value point accepted")
	}
}

// TestSweepSummaries: per-point summaries aggregate only successful
// replicas and carry the right replica counts.
func TestSweepSummaries(t *testing.T) {
	res, err := Sweep(context.Background(), sweepTestSpec(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Replicas != 4 || p.Failed != 0 {
			t.Fatalf("point %s: replicas=%d failed=%d", p.Name, p.Replicas, p.Failed)
		}
		if p.MeanTurnaround.N != 4 || p.MeanTurnaround.Mean <= 0 {
			t.Errorf("point %s turnaround summary: %+v", p.Name, p.MeanTurnaround)
		}
		if p.MeanTurnaround.CI95 < 0 || p.MeanTurnaround.StdDev < 0 {
			t.Errorf("point %s negative spread: %+v", p.Name, p.MeanTurnaround)
		}
	}
	if got := res.Metrics(0); len(got) != 4 {
		t.Errorf("Metrics(0) = %d results", len(got))
	}
}
