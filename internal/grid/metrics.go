package grid

import (
	"fmt"
	"strings"

	"repro/internal/capability"
	"repro/internal/power"
	"repro/internal/sim"
)

// Metrics aggregates one simulation run's outcomes.
type Metrics struct {
	Strategy string
	// Submitted counts the tasks that entered the scheduler queue at least
	// once. At the end of any run — drained or cut off by the horizon —
	// Submitted == Completed + Unfinished + TasksLost (task conservation).
	Submitted int
	// Completed and Unfinished partition the submitted tasks; Unfinished
	// tasks were still queued (unschedulable under the strategy, or the
	// horizon hit), backing off before a retry, or stranded in flight when
	// the run ended.
	Completed  int
	Unfinished int
	// Wait is queueing delay (enqueue → dispatch); Turnaround is enqueue →
	// completion; Exec is pure execution time.
	Wait       sim.Series
	Turnaround sim.Series
	Exec       sim.Series
	// Reconfigs counts fabric configuration loads; ReconfigSeconds their
	// total delay; BitstreamMB the configuration traffic sent over the
	// network; Reuses the allocations served by resident configurations.
	Reconfigs       int
	ReconfigSeconds float64
	BitstreamMB     float64
	Reuses          int
	// Fallbacks counts software tasks served by soft-cores on RPEs.
	Fallbacks int
	// Failures counts task executions aborted by injected element
	// failures (each aborted task is re-enqueued and retried).
	Failures int
	// Fault-injection and recovery accounting (zero unless a fault spec
	// is active): Retries counts fault-induced re-queues, TasksLost the
	// tasks abandoned after exhausting their retry budget, LeaseExpiries
	// the leases whose renewal check found their node gone, and the
	// remaining counters the injected fault events that took effect.
	Retries        int
	TasksLost      int
	LeaseExpiries  int
	NodeCrashes    int
	NodeRecoveries int
	SEUFaults      int
	LinkFaults     int
	// MTTR observes, per recovered task, the time from its last
	// fault-induced abort to its eventual successful completion.
	MTTR sim.Series
	// DownSeconds accumulates node-seconds of outage; WindowSeconds is
	// the observation window (virtual end-of-run time) and Nodes the
	// grid size, the denominators of Availability.
	DownSeconds   float64
	WindowSeconds float64
	Nodes         int
	// Compactions counts idle regions rewritten by fabric defragmentation
	// and CompactionSeconds their total configuration-port time.
	Compactions       int
	CompactionSeconds float64
	// SynthesisSeconds is total CAD time paid.
	SynthesisSeconds float64
	// Makespan is the completion time of the last task.
	Makespan sim.Time
	// busySeconds accumulates element-kind busy time for utilization.
	busySeconds     [capability.NumKinds]float64
	capacitySeconds [capability.NumKinds]float64
	// Energy meters the grid's power draw over the run (active while
	// executing, idle otherwise), quantifying the paper's low-power claim.
	Energy *power.Meter
}

func newMetrics(strategy string) *Metrics {
	return &Metrics{Strategy: strategy, Energy: power.NewMeter()}
}

// EnergyJoules returns the total grid energy consumed over the makespan.
func (m *Metrics) EnergyJoules() float64 { return m.Energy.TotalJoules() }

// JoulesPerTask returns average energy per completed task, the
// performance-per-watt proxy of the X5 experiment.
func (m *Metrics) JoulesPerTask() float64 {
	if m.Completed == 0 {
		return 0
	}
	return m.EnergyJoules() / float64(m.Completed)
}

// Utilization returns busy time over capacity time for a PE kind in [0,1],
// or 0 when the grid has no capacity of that kind or the kind is outside
// the enum.
func (m *Metrics) Utilization(kind capability.Kind) float64 {
	if kind < 0 || int(kind) >= capability.NumKinds {
		return 0
	}
	cap := m.capacitySeconds[kind]
	if cap <= 0 {
		return 0
	}
	u := m.busySeconds[kind] / cap
	if u > 1 {
		u = 1
	}
	return u
}

// MeanWait returns the average queueing delay in seconds.
func (m *Metrics) MeanWait() float64 { return m.Wait.Mean() }

// P95Wait returns the 95th-percentile queueing delay in seconds.
func (m *Metrics) P95Wait() float64 { return m.Wait.Quantile(0.95) }

// MeanTurnaround returns the average enqueue-to-completion time.
func (m *Metrics) MeanTurnaround() float64 { return m.Turnaround.Mean() }

// Throughput returns completed tasks per simulated second.
func (m *Metrics) Throughput() float64 {
	if m.Makespan <= 0 {
		return 0
	}
	return float64(m.Completed) / float64(m.Makespan)
}

// Availability returns mean node availability over the run window in
// [0,1]: 1 − down-node-seconds / (nodes × window). A run without nodes
// or window (nothing happened) reports 1.
func (m *Metrics) Availability() float64 {
	if m.Nodes <= 0 || m.WindowSeconds <= 0 {
		return 1
	}
	a := 1 - m.DownSeconds/(float64(m.Nodes)*m.WindowSeconds)
	if a < 0 {
		return 0
	}
	return a
}

// MeanMTTR returns the average fault-to-repair time over tasks that
// failed at least once and eventually completed.
func (m *Metrics) MeanMTTR() float64 { return m.MTTR.Mean() }

// String renders a one-line summary.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] done=%d unfinished=%d wait(mean=%.3gs p95=%.3gs) turnaround=%.3gs makespan=%s",
		m.Strategy, m.Completed, m.Unfinished, m.MeanWait(), m.P95Wait(), m.MeanTurnaround(), m.Makespan)
	fmt.Fprintf(&b, " reconfigs=%d (%.3gs, %.1f MB) reuse=%d fallback=%d", m.Reconfigs, m.ReconfigSeconds, m.BitstreamMB, m.Reuses, m.Fallbacks)
	fmt.Fprintf(&b, " util{gpp=%.0f%% fpga=%.0f%%}", 100*m.Utilization(capability.KindGPP), 100*m.Utilization(capability.KindFPGA))
	if m.Failures > 0 || m.NodeCrashes > 0 || m.SEUFaults > 0 || m.LinkFaults > 0 || m.TasksLost > 0 {
		fmt.Fprintf(&b, " faults{crash=%d seu=%d link=%d expired=%d retries=%d lost=%d mttr=%.3gs avail=%.2f%%}",
			m.NodeCrashes, m.SEUFaults, m.LinkFaults, m.LeaseExpiries, m.Retries, m.TasksLost,
			m.MeanMTTR(), 100*m.Availability())
	}
	return b.String()
}
