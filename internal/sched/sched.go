// Package sched provides the task scheduling strategies the paper's RMS
// plugs in: "The mapping decisions are based on a particular scheduling
// strategy implemented inside the scheduler in the RMS, that takes into
// account various parameters, such as area slices, reconfiguration delays,
// and the time required to send configuration bitstreams, the availability
// and current status of the nodes."
//
// A Strategy chooses among placement options for one task; a QueuePolicy
// orders the waiting tasks. Both axes are what DReAMSim exists to compare.
package sched

import (
	"errors"
	"fmt"

	"repro/internal/capability"
	"repro/internal/rms"
)

// Option is one costed placement alternative for a task.
type Option struct {
	Cand rms.Candidate
	// ExecSeconds is the predicted execution time on this element.
	ExecSeconds float64
	// ReconfigSeconds is the reconfiguration delay this placement pays
	// (zero when the configuration is already resident).
	ReconfigSeconds float64
	// TransferSeconds is the network time for input data and, when a
	// reconfiguration is needed, the configuration bitstream.
	TransferSeconds float64
	// SynthesisSeconds is first-time CAD cost (user-defined hardware).
	SynthesisSeconds float64
}

// TotalSeconds is the completion-time estimate for the option.
func (o Option) TotalSeconds() float64 {
	return o.ExecSeconds + o.ReconfigSeconds + o.TransferSeconds + o.SynthesisSeconds
}

// Strategy picks one option for a task, or -1 to leave the task queued.
// Choose's result is a pure function of its options: it reads no state
// kept between calls, so concurrent engines share one strategy value and
// the same options always get the same choice.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Choose returns the index of the selected option, or -1.
	Choose(opts []Option) int
}

// FirstFit takes the first feasible option — the naive baseline: it
// ignores reconfiguration delays and execution-time differences entirely.
type FirstFit struct{}

// Name implements Strategy.
func (FirstFit) Name() string { return "first-fit" }

// Choose implements Strategy.
func (FirstFit) Choose(opts []Option) int {
	if len(opts) == 0 {
		return -1
	}
	return 0
}

// BestFitArea places hardware tasks on the device wasting the least area
// (Slices closest to the task's need), falling back to first-fit for
// non-fabric options. It optimizes packing, not time.
type BestFitArea struct{}

// Name implements Strategy.
func (BestFitArea) Name() string { return "best-fit-area" }

// Choose implements Strategy.
func (BestFitArea) Choose(opts []Option) int {
	best := -1
	bestWaste := 0
	for i, o := range opts {
		if o.Cand.Elem.Fabric == nil {
			if best == -1 {
				best = i
				bestWaste = int(^uint(0) >> 1)
			}
			continue
		}
		waste := o.Cand.Elem.Fabric.Device().Slices - o.Cand.Slices
		if waste < 0 {
			continue
		}
		if best == -1 || waste < bestWaste {
			best = i
			bestWaste = waste
		}
	}
	return best
}

// ReconfigAware minimizes total completion time including reconfiguration,
// bitstream/data transfer, and synthesis — the strategy the paper argues
// for. Ties break toward already-loaded configurations.
type ReconfigAware struct{}

// Name implements Strategy.
func (ReconfigAware) Name() string { return "reconfig-aware" }

// Choose implements Strategy.
func (ReconfigAware) Choose(opts []Option) int {
	best := -1
	var bestT float64
	for i, o := range opts {
		t := o.TotalSeconds()
		if best == -1 || t < bestT || (t == bestT && o.Cand.AlreadyLoaded && !opts[best].Cand.AlreadyLoaded) {
			best = i
			bestT = t
		}
	}
	return best
}

// ReuseFirst strictly prefers resident configurations, then falls back to
// minimal total time; it maximizes configuration reuse at the price of
// sometimes picking a slower device.
type ReuseFirst struct{}

// Name implements Strategy.
func (ReuseFirst) Name() string { return "reuse-first" }

// Choose implements Strategy.
func (ReuseFirst) Choose(opts []Option) int {
	best := -1
	var bestT float64
	for i, o := range opts {
		if !o.Cand.AlreadyLoaded {
			continue
		}
		if best == -1 || o.TotalSeconds() < bestT {
			best = i
			bestT = o.TotalSeconds()
		}
	}
	if best >= 0 {
		return best
	}
	return ReconfigAware{}.Choose(opts)
}

// GPPOnly refuses every non-GPP placement: the traditional-grid baseline
// for the hybrid-vs-GPP experiment. Software tasks still run; hardware
// tasks starve (counted as unschedulable).
type GPPOnly struct{}

// Name implements Strategy.
func (GPPOnly) Name() string { return "gpp-only" }

// Choose implements Strategy.
func (GPPOnly) Choose(opts []Option) int {
	best := -1
	var bestT float64
	for i, o := range opts {
		if o.Cand.Elem.Kind != capability.KindGPP {
			continue
		}
		if best == -1 || o.TotalSeconds() < bestT {
			best = i
			bestT = o.TotalSeconds()
		}
	}
	return best
}

// QueuePolicy orders waiting tasks.
type QueuePolicy int

// Queue policies.
const (
	// FCFS serves tasks in arrival order.
	FCFS QueuePolicy = iota
	// SJF serves the task with the smallest t_estimated first.
	SJF
)

// String returns the policy name.
func (q QueuePolicy) String() string {
	switch q {
	case FCFS:
		return "fcfs"
	case SJF:
		return "sjf"
	}
	return fmt.Sprintf("QueuePolicy(%d)", int(q))
}

// ErrUnknownStrategy is the sentinel ByName wraps when no built-in
// strategy carries the requested name; match it with errors.Is.
var ErrUnknownStrategy = errors.New("sched: unknown strategy")

// ByName returns a built-in strategy by its Name() string, or an error
// wrapping ErrUnknownStrategy.
func ByName(name string) (Strategy, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownStrategy, name)
}

// All returns every built-in strategy in comparison order.
func All() []Strategy {
	return []Strategy{FirstFit{}, BestFitArea{}, ReconfigAware{}, ReuseFirst{}, GPPOnly{}}
}

// Names returns every built-in strategy name, for error messages and flag
// help.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name()
	}
	return out
}
