// Package reconvirt is a Go implementation of the virtualization framework
// for reconfigurable hardware in distributed systems described in
// "On Virtualization of Reconfigurable Hardware in Distributed Systems"
// (Nadeem, Nadeem & Wong, ICPP 2012), together with every substrate the
// paper depends on: the node and task models, the Resource Management
// System, the Job Submission System, the scheduling strategies, the FPGA
// fabric and soft-core models, the Quipu-style area predictor, the
// gprof-style profiler, the ClustalW aligner of the case study, and the
// DReAMSim-equivalent discrete-event grid simulator.
//
// This file is the public facade: the names the repository's examples and
// root tests use, re-exported from the internal packages with constructors
// for the common flows. See the examples/ directory for runnable programs
// and DESIGN.md for the full system inventory.
package reconvirt

import (
	"context"
	"io"

	"repro/internal/bio"
	"repro/internal/capability"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/profiler"
	"repro/internal/quipu"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/softcore"
	"repro/internal/stream"
	"repro/internal/task"
)

// Level is a virtualization/abstraction level (Fig. 2).
type Level = core.Level

// Abstraction levels, most abstract first.
const (
	LevelGrid     = core.LevelGrid
	LevelSoftcore = core.LevelSoftcore
	LevelFabric   = core.LevelFabric
	LevelDevice   = core.LevelDevice
)

// Use-case scenarios (Fig. 1, Section III).
const (
	SoftwareOnly     = pe.SoftwareOnly
	UserDefinedHW    = pe.UserDefinedHW
	DeviceSpecificHW = pe.DeviceSpecificHW
)

// GPPCaps is the Table I parameter set of a general-purpose processor.
type GPPCaps = capability.GPPCaps

// Task model (Eq. 2/3, Figs. 4, 7, 8).
type (
	// Task is the paper's task tuple.
	Task = task.Task
	// ExecReq is a task's execution requirement.
	ExecReq = task.ExecReq
)

// Grid services (Figs. 3, 9).
type (
	// Registry is the RMS node registry.
	Registry = rms.Registry
	// QoS are submission service attributes.
	QoS = jss.QoS
)

// Hardware substrates.
type (
	// Device is an FPGA part description.
	Device = fabric.Device
	// Bitstream is a device configuration image.
	Bitstream = fabric.Bitstream
)

// Simulation (the DReAMSim equivalent).
type (
	// GridSpec describes simulated grid resources.
	GridSpec = grid.GridSpec
	// WorkloadSpec describes a synthetic many-task workload.
	WorkloadSpec = grid.WorkloadSpec
	// Metrics aggregates one run's outcomes.
	Metrics = grid.Metrics
	// ScenarioSpec bundles one scenario run's inputs for RunScenario.
	ScenarioSpec = grid.ScenarioSpec
)

// EventScheduler is the simulator's pluggable pending-event set. Both
// schedulers obey the same (Time, Priority, seq) total order, so swapping
// one for the other is a pure performance choice: runs stay bit-identical.
// Select per engine via grid.Config.Scheduler, or per bare simulator via
// sim.WithScheduler.
type EventScheduler = sim.Scheduler

// NewHeapQueue returns an empty binary-heap event scheduler (O(log n) per
// operation).
func NewHeapQueue() *sim.HeapQueue { return sim.NewHeapQueue() }

// NewWheelQueue returns an empty hierarchical timing-wheel event
// scheduler (amortized O(1) near-future operations; the default).
func NewWheelQueue() *sim.WheelQueue { return sim.NewWheelQueue() }

// Observability (pluggable trace sinks). The engine emits lifecycle
// events and periodic gauge samples through the TraceSink wired into
// grid.Config.Tracer (obs.Multi fans one stream out to several); see the
// obs package comment for the full sink contract.
type (
	// TraceSink consumes engine lifecycle events and gauge samples.
	TraceSink = obs.TraceSink
	// TraceRecorder retains every event in memory for post-hoc
	// analysis: Gantt charts, differential checks.
	TraceRecorder = obs.Recorder
	// NoopSink discards everything (instrumentation-cost baseline).
	NoopSink = obs.Noop
)

// NewChromeTrace returns a sink that streams a Chrome trace-event JSON
// document (Perfetto-loadable) to w; Close finalizes it.
func NewChromeTrace(w io.Writer) *obs.Chrome { return obs.NewChrome(w) }

// NewStreamingCSV returns a CSV event sink writing to w with O(1) memory,
// byte-identical to encoding/csv's rendering of the same events.
func NewStreamingCSV(w io.Writer) *obs.CSV { return obs.NewCSV(w) }

// Fault injection and recovery (availability experiments).
type (
	// FaultSpec parameterizes deterministic fault injection: node
	// crash/recovery cycles, SEU configuration upsets, and link
	// degradation/partitions, plus the lease TTL and retry policy the
	// recovery machinery uses. Attach one to a ScenarioSpec or SweepPoint.
	FaultSpec = faults.Spec
	// RetryPolicy caps and paces fault-induced task retries.
	RetryPolicy = faults.RetryPolicy
)

// DefaultFaults returns a moderate fault model; adjust rates as needed
// and set HorizonSeconds (or leave it zero to cover the workload).
func DefaultFaults() FaultSpec { return faults.Default() }

// Parallel experiment sweeps (the DReAMSim evaluation loop).
type (
	// SweepSpec describes a parallel sweep: points × seeds fanned across a
	// bounded worker pool.
	SweepSpec = grid.SweepSpec
	// SweepPoint is one (strategy, config, grid, workload) cell.
	SweepPoint = grid.SweepPoint
	// SweepResult is a completed (or cancelled) sweep.
	SweepResult = grid.SweepResult
)

// NewVirtualGrid creates an empty virtual organization: the
// hardware-independent layer between application developers and GPP/RPE
// resources. Pass a toolchain from NewToolchain via GridOptions to enable
// the user-defined-hardware scenario.
func NewVirtualGrid(opts GridOptions) (*core.VirtualGrid, error) { return core.NewVirtualGrid(opts) }

// GridOptions configure NewVirtualGrid.
type GridOptions = core.Options

// NewNode creates an empty grid node.
func NewNode(id string) (*node.Node, error) { return node.New(id) }

// NewToolchain creates a provider CAD toolchain for the given families.
func NewToolchain(vendor string, families ...string) (*hdl.Toolchain, error) {
	return hdl.NewToolchain(vendor, families...)
}

// LookupIP returns a built-in OpenCores-style library design.
func LookupIP(name string) (*hdl.Design, error) { return hdl.LookupIP(name) }

// LookupDevice returns a catalog FPGA part.
func LookupDevice(name string) (Device, error) { return fabric.LookupDevice(name) }

// NewFullBitstream builds a user-supplied full-device bitstream for the
// device-specific-hardware scenario.
func NewFullBitstream(id, design string, dev Device, usedSlices int) *Bitstream {
	return fabric.FullBitstream(id, design, dev, usedSlices)
}

// RVEX returns the ρ-VEX-style VLIW soft-core preset.
func RVEX(issueWidth, clusters int) (*softcore.Core, error) {
	return softcore.RVEX(issueWidth, clusters)
}

// ParseApp parses a Seq/Par application expression such as
// "App{Seq(T2), Par(T4,T1,T7), Seq(T5,T10)}".
func ParseApp(src string) (*task.Program, error) { return task.ParseApp(src) }

// NewGraph returns an empty application task graph.
func NewGraph() *task.Graph { return task.NewGraph() }

// NewMatchmaker builds a matchmaker over a registry. The toolchain may be
// nil (a provider without CAD tools never serves user-defined hardware).
func NewMatchmaker(reg *Registry, tc *hdl.Toolchain) (*rms.Matchmaker, error) {
	return rms.NewMatchmaker(reg, tc)
}

// NewEngine wires the discrete-event grid simulator around a registry and
// matchmaker.
func NewEngine(cfg grid.Config, reg *Registry, mm *rms.Matchmaker) (*grid.Engine, error) {
	return grid.NewEngine(cfg, reg, mm)
}

// DefaultEngineConfig returns the default simulation configuration.
func DefaultEngineConfig() grid.Config { return grid.DefaultConfig() }

// BuildGrid constructs a registry from a grid spec.
func BuildGrid(spec GridSpec) (*Registry, error) { return grid.BuildGrid(spec) }

// RunScenario builds a grid, generates a workload, and simulates it. The
// context cancels the run mid-simulation; cancelled runs return partial
// metrics together with the context's error.
func RunScenario(ctx context.Context, spec ScenarioSpec) (*Metrics, error) {
	return grid.RunScenario(ctx, spec)
}

// RunSweep fans a sweep's point × seed replicas across a bounded worker
// pool, each replica an independent simulation with a deterministically
// split seed. Cancelling ctx stops the sweep promptly and returns the
// partial result together with ctx's error. See grid.Sweep for the full
// contract.
func RunSweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	return grid.Sweep(ctx, spec)
}

// Strategies returns every built-in scheduling strategy.
func Strategies() []sched.Strategy { return sched.All() }

// CaseStudyNodes builds the Section V grid (Fig. 5).
func CaseStudyNodes() (*Registry, error) { return casestudy.BuildNodes() }

// CaseStudyTasks builds the Section V tasks (Fig. 6).
func CaseStudyTasks() ([]*Task, error) { return casestudy.Tasks() }

// TableII regenerates the paper's mapping table.
func TableII() ([]casestudy.TableIIRow, error) { return casestudy.TableII() }

// AlignProteins runs the ClustalW-style pipeline of the case study. Pass a
// profiler from NewProfiler to collect the Fig. 10 kernel profile.
func AlignProteins(seqs []bio.Sequence, prof *profiler.Profiler) (*bio.Result, error) {
	return bio.Align(seqs, prof, bio.DefaultOptions())
}

// NewProfiler returns a gprof-style instrumenting profiler.
func NewProfiler() *profiler.Profiler { return profiler.New() }

// PredictArea runs the Quipu-style predictor on kernel metrics.
func PredictArea(m quipu.Metrics) (quipu.Prediction, error) {
	return quipu.Default().Predict(m)
}

// NewRNG returns the deterministic random generator simulations use.
func NewRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed) }

// StreamSpec describes a streaming session request (the paper's future
// work).
type StreamSpec = stream.Spec

// NewStreamManager builds a manager that admits continuous dataflows with
// throughput guarantees onto grid elements, over a matchmaker and a
// simulator for session timing.
func NewStreamManager(mm *rms.Matchmaker, s *sim.Simulator) (*stream.Manager, error) {
	return stream.NewManager(mm, s)
}

// NewSimulator returns a fresh discrete-event simulator (for callers
// driving streams or custom models directly rather than via Engine).
func NewSimulator() *sim.Simulator { return sim.NewSimulator() }

// GenerateProteinFamily produces a synthetic homologous protein family
// for the bioinformatics case study.
func GenerateProteinFamily(rng *sim.RNG, opts bio.FamilyOptions) ([]bio.Sequence, error) {
	return bio.GenerateFamily(rng, opts)
}

// DefaultFamily matches the scale of a BioBench ClustalW input.
func DefaultFamily() bio.FamilyOptions { return bio.DefaultFamily() }

// PairalignMetrics returns the measured software-complexity metrics of the
// ClustalW pairalign kernel (the case study's Quipu input).
func PairalignMetrics() quipu.Metrics { return quipu.PairalignMetrics() }

// MalignMetrics returns the measured metrics of the malign kernel.
func MalignMetrics() quipu.Metrics { return quipu.MalignMetrics() }
