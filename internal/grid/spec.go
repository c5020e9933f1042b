// Package grid is the repository's DReAMSim equivalent: a discrete-event
// simulator of a distributed grid whose nodes carry GPPs and reconfigurable
// processing elements. It composes the node registry, matchmaker, job
// submission system, and scheduling strategies into a closed loop and
// measures waiting times, utilization, reconfiguration overhead, and
// configuration reuse — "the DReAMSim can be used to investigate the
// desired system scenario(s) for a particular scheduling strategy and a
// given number of tasks, grid nodes, configurations, task arrival
// distributions, area ranges, and task required times".
package grid

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/task"
)

// GridSpec describes the simulated grid's resources.
type GridSpec struct {
	// GPPNodes are software-only nodes, each with GPPsPerNode processors.
	GPPNodes    int
	GPPsPerNode int
	// GPPCaps is the processor installed on every GPP slot.
	GPPCaps capability.GPPCaps
	// HybridNodes each carry one GPP plus the RPEDevices list.
	HybridNodes int
	RPEDevices  []string
	// GPUNodes each carry one GPP plus one Tesla-class GPU (the
	// taxonomy's non-reconfigurable enhanced PEs).
	GPUNodes int
	// ReconfigMBpsOverride, when positive, replaces every RPE device's
	// configuration-port bandwidth (the X3 sensitivity sweep).
	ReconfigMBpsOverride float64
	// DisablePartialReconfig strips partial-reconfiguration support from
	// every RPE device, forcing full-device configuration loads (the X4
	// partial-vs-full comparison).
	DisablePartialReconfig bool
}

// DefaultGridSpec is a small mixed grid: 2 GPP-only nodes and 2 hybrid
// nodes with two Virtex-5 devices each.
func DefaultGridSpec() GridSpec {
	return GridSpec{
		GPPNodes:    2,
		GPPsPerNode: 2,
		GPPCaps:     capability.GPPCaps{CPUType: "Intel Xeon E5540", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 4},
		HybridNodes: 2,
		RPEDevices:  []string{"XC5VLX155T", "XC5VLX330T"},
	}
}

// Validate reports impossible specs.
func (s GridSpec) Validate() error {
	if s.GPPNodes < 0 || s.HybridNodes < 0 || s.GPUNodes < 0 {
		return fmt.Errorf("grid: negative node counts")
	}
	if s.GPPNodes+s.HybridNodes+s.GPUNodes == 0 {
		return fmt.Errorf("grid: empty grid")
	}
	if s.GPPNodes > 0 && s.GPPsPerNode <= 0 {
		return fmt.Errorf("grid: GPP nodes need at least one processor")
	}
	if s.HybridNodes > 0 && len(s.RPEDevices) == 0 {
		return fmt.Errorf("grid: hybrid nodes need RPE devices")
	}
	return nil
}

// BuildGrid constructs the registry for a spec.
func BuildGrid(spec GridSpec) (*rms.Registry, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reg := rms.NewRegistry()
	idx := 0
	for i := 0; i < spec.GPPNodes; i++ {
		n, err := node.New(fmt.Sprintf("Node%d", idx))
		if err != nil {
			return nil, err
		}
		idx++
		for j := 0; j < spec.GPPsPerNode; j++ {
			if _, err := n.AddGPP(spec.GPPCaps); err != nil {
				return nil, err
			}
		}
		if err := reg.AddNode(n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.HybridNodes; i++ {
		n, err := node.New(fmt.Sprintf("Node%d", idx))
		if err != nil {
			return nil, err
		}
		idx++
		if _, err := n.AddGPP(spec.GPPCaps); err != nil {
			return nil, err
		}
		for _, devName := range spec.RPEDevices {
			dev, err := fabric.LookupDevice(devName)
			if err != nil {
				return nil, err
			}
			if spec.ReconfigMBpsOverride > 0 {
				dev.ReconfigMBps = spec.ReconfigMBpsOverride
			}
			if spec.DisablePartialReconfig {
				dev.PartialRecon = false
			}
			if _, err := n.AddRPEDevice(dev); err != nil {
				return nil, err
			}
		}
		if err := reg.AddNode(n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.GPUNodes; i++ {
		n, err := node.New(fmt.Sprintf("Node%d", idx))
		if err != nil {
			return nil, err
		}
		idx++
		if _, err := n.AddGPP(spec.GPPCaps); err != nil {
			return nil, err
		}
		if _, err := n.AddGPU(capability.GPUCaps{
			Model: "GT200", ShaderCores: 240, WarpSize: 32, SIMDWidth: 8,
			SharedKB: 16, MemFreqMHz: 1100,
		}, 1296); err != nil {
			return nil, err
		}
		if err := reg.AddNode(n); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// WorkloadSpec describes a synthetic many-task workload — DReAMSim's
// parameter space: task count, arrival distribution, demand distributions,
// and the scenario mix.
type WorkloadSpec struct {
	Tasks        int
	Interarrival sim.Distribution
	WorkMI       sim.Distribution
	Parallel     sim.Distribution // clamped to [0,1]
	DataMB       sim.Distribution
	// Scenario shares; they must sum to ≤ 1, the remainder is software.
	ShareSoftcore float64
	ShareUserHW   float64
	// ShareGPU routes data-parallel tasks to GPU elements (requires
	// GPUNodes in the grid to be schedulable).
	ShareGPU float64
	// Designs are the IP cores user-defined tasks draw from.
	Designs []string
	// Family is the device-family requirement of user-defined tasks.
	Family string
	// MinMIPS/MinRAMMB are the software tasks' GPP requirements.
	MinMIPS  float64
	MinRAMMB int
}

// DefaultWorkload models an accelerator-friendly mixed stream: 50 %
// software, 20 % soft-core, 30 % user-defined hardware.
func DefaultWorkload(tasks int, arrivalRate float64) WorkloadSpec {
	return WorkloadSpec{
		Tasks:         tasks,
		Interarrival:  sim.Exponential{Rate: arrivalRate},
		WorkMI:        sim.LogNormal{Mu: 11.5, Sigma: 0.8}, // ≈10^5 MI median
		Parallel:      sim.Uniform{Lo: 0.6, Hi: 0.99},
		DataMB:        sim.Uniform{Lo: 1, Hi: 50},
		ShareSoftcore: 0.2,
		ShareUserHW:   0.3,
		Designs:       []string{"fft1024", "aes128", "fir64", "matmul32"},
		Family:        "Virtex-5",
		MinMIPS:       1000,
		MinRAMMB:      512,
	}
}

// Validate reports impossible workload specs.
func (w WorkloadSpec) Validate() error {
	switch {
	case w.Tasks <= 0:
		return fmt.Errorf("grid: workload needs tasks")
	case w.Interarrival == nil || w.WorkMI == nil || w.Parallel == nil || w.DataMB == nil:
		return fmt.Errorf("grid: workload distributions incomplete")
	case w.ShareSoftcore < 0 || w.ShareUserHW < 0 || w.ShareGPU < 0 ||
		w.ShareSoftcore+w.ShareUserHW+w.ShareGPU > 1:
		return fmt.Errorf("grid: scenario shares invalid")
	case w.ShareUserHW > 0 && len(w.Designs) == 0:
		return fmt.Errorf("grid: user-defined share without designs")
	}
	return nil
}

// Generated is one workload task, a flat record of the task tuple
// (Eq. 2) with its arrival time. Its one input, from the submitter, is
// Work.DataMB, and its one output a quarter of that; the engine queues
// the task straight from the record.
type Generated struct {
	Arrival          sim.Time
	ID               string
	ExecReq          task.ExecReq
	EstimatedSeconds float64
	Work             pe.Work
}

// tuple returns the task the record stands for, without its input and
// output: Work.Validate rejects a negative DataMB, so with Work valid
// the two are valid too, and Validate gives the same answer either way.
func (g *Generated) tuple() task.Task {
	return task.Task{ID: g.ID, ExecReq: g.ExecReq, EstimatedSeconds: g.EstimatedSeconds, Work: g.Work}
}

// Generate draws a deterministic workload from the spec. The records
// share one backing string for their IDs, so a trace costs a bounded
// number of allocations, not a few per task.
func Generate(rng *sim.RNG, spec WorkloadSpec) ([]Generated, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	out := make([]Generated, spec.Tasks)
	// Each ID is "wl-" and at least five digits.
	var ids strings.Builder
	idBytes := spec.Tasks * len("wl-00000")
	for p := 100_000; p < spec.Tasks; p *= 10 {
		idBytes += spec.Tasks - p
	}
	ids.Grow(idBytes)
	// The capability predicates depend only on the spec, so build each
	// variant once and share the (read-only) slices across all tasks.
	reqs := newSpecReqs(spec)
	var now sim.Time
	for i := range out {
		now += sim.Time(spec.Interarrival.Sample(rng))
		start := ids.Len()
		writeWorkloadID(&ids, i)
		t, err := randomTask(rng, spec, ids.String()[start:], reqs)
		if err != nil {
			return nil, err
		}
		out[i] = Generated{Arrival: now, ID: t.ID, ExecReq: t.ExecReq, EstimatedSeconds: t.EstimatedSeconds, Work: t.Work}
	}
	return out, nil
}

// writeWorkloadID writes task i's ID, fmt.Sprintf("wl-%05d", i), from a
// stack buffer, so neither the index nor a temporary string reaches the
// heap.
func writeWorkloadID(ids *strings.Builder, i int) {
	var buf [24]byte
	b := append(buf[:0], "wl-"...)
	for p := 10000; p > 1 && i < p; p /= 10 {
		b = append(b, '0')
	}
	ids.Write(strconv.AppendInt(b, int64(i), 10))
}

// specReqs holds the per-scenario requirement lists shared by every task
// Generate draws from one spec.
type specReqs struct {
	userHW, softcore, gpu, software capability.Requirements
}

// newSpecReqs builds the requirement list of each of spec's scenarios.
func newSpecReqs(spec WorkloadSpec) specReqs {
	return specReqs{
		userHW:   task.FPGAFamily(spec.Family, 1),
		softcore: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2),
		gpu:      capability.Requirements{}.Min(capability.ParamGPUShaderCores, 64),
		software: task.GPPOnly(spec.MinMIPS, spec.MinRAMMB),
	}
}

// randomTask draws one task from the spec's distributions and scenario
// mix. It has no inputs or outputs: Generate keeps Work.DataMB as the
// record's input, and GenerateApps attaches them.
func randomTask(rng *sim.RNG, spec WorkloadSpec, id string, reqs specReqs) (task.Task, error) {
	par := spec.Parallel.Sample(rng)
	if par < 0 {
		par = 0
	}
	if par > 1 {
		par = 1
	}
	t := task.Task{
		ID: id,
		Work: pe.Work{
			MInstructions:    1 + spec.WorkMI.Sample(rng),
			ParallelFraction: par,
			DataMB:           spec.DataMB.Sample(rng),
		},
	}
	r := rng.Float64()
	switch {
	case r < spec.ShareUserHW:
		name := spec.Designs[rng.Intn(len(spec.Designs))]
		d, err := hdl.LookupIP(name)
		if err != nil {
			return task.Task{}, err
		}
		t.ExecReq = task.ExecReq{
			Scenario:     pe.UserDefinedHW,
			Requirements: reqs.userHW,
			Design:       d,
		}
		t.Work.HWSpeedup = d.AccelFactor
	case r < spec.ShareUserHW+spec.ShareSoftcore:
		t.ExecReq = task.ExecReq{
			Scenario:     pe.PredeterminedHW,
			SoftcoreISA:  "rvex-vliw",
			Requirements: reqs.softcore,
		}
	case r < spec.ShareUserHW+spec.ShareSoftcore+spec.ShareGPU:
		t.ExecReq = task.ExecReq{
			Scenario:     pe.PredeterminedHW,
			Requirements: reqs.gpu,
		}
		// GPU tasks skew highly parallel or they are not worth routing.
		if t.Work.ParallelFraction < 0.9 {
			t.Work.ParallelFraction = 0.9 + 0.09*rng.Float64()
		}
	default:
		t.ExecReq = task.ExecReq{
			Scenario:     pe.SoftwareOnly,
			Requirements: reqs.software,
		}
	}
	// t_estimated: the reference-GPP time.
	t.EstimatedSeconds = t.Work.MInstructions / 1000
	if err := t.Validate(); err != nil {
		return task.Task{}, err
	}
	return t, nil
}
