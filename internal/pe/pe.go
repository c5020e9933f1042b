// Package pe defines the taxonomy of enhanced processing elements from
// Fig. 1 of the reproduced paper and the use-case scenarios that drive the
// virtualization framework: software-only applications, pre-determined
// hardware configurations (soft-cores), user-defined hardware configurations
// (generic HDL), and device-specific hardware (user-supplied bitstreams).
package pe

import (
	"fmt"
	"strings"

	"repro/internal/capability"
)

// Scenario is a use-case scenario from Section III of the paper. The
// scenario chosen by an application determines which abstraction level the
// user operates at, what the user must supply, and what the service
// provider must possess.
type Scenario int

// The four use-case scenarios (Fig. 1, Section III).
const (
	// SoftwareOnly: existing GPP applications, unaware of reconfigurable
	// fabric; may fall back to a soft-core CPU configured on an RPE when no
	// GPP is free (Section III-A).
	SoftwareOnly Scenario = iota
	// PredeterminedHW: tasks optimized for a particular soft-core
	// architecture (e.g. the ρ-VEX VLIW) that the grid configures onto an
	// RPE (Section III-B1).
	PredeterminedHW
	// UserDefinedHW: the developer supplies a generic HDL accelerator; the
	// provider owns the CAD tools and generates device-specific bitstreams
	// (Section III-B2).
	UserDefinedHW
	// DeviceSpecificHW: the developer supplies a bitstream for one exact
	// device; maximum performance, minimum portability (Section III-B3).
	DeviceSpecificHW
)

var scenarioNames = map[Scenario]string{
	SoftwareOnly:     "Software-only application",
	PredeterminedHW:  "Predetermined hardware configuration",
	UserDefinedHW:    "User-defined hardware configuration",
	DeviceSpecificHW: "Device-specific hardware",
}

// String returns the paper's name for the scenario.
func (s Scenario) String() string {
	if n, ok := scenarioNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// scenario aliases accepted by ParseScenario, beyond the full names.
var scenarioAliases = map[string]Scenario{
	"software":        SoftwareOnly,
	"software-only":   SoftwareOnly,
	"predetermined":   PredeterminedHW,
	"softcore":        PredeterminedHW,
	"user-defined":    UserDefinedHW,
	"userdefined":     UserDefinedHW,
	"device-specific": DeviceSpecificHW,
	"devicespecific":  DeviceSpecificHW,
}

// ParseScenario converts a scenario's full name or short alias back to a
// Scenario (case-insensitive).
func ParseScenario(s string) (Scenario, error) {
	lower := strings.ToLower(strings.TrimSpace(s))
	if sc, ok := scenarioAliases[lower]; ok {
		return sc, nil
	}
	for sc, name := range scenarioNames {
		if strings.EqualFold(name, s) {
			return sc, nil
		}
	}
	return SoftwareOnly, fmt.Errorf("pe: unknown scenario %q", s)
}

// Profile describes a scenario row of the taxonomy: what the user supplies,
// what the provider needs, and the qualitative performance/flexibility
// trade-off the paper assigns to it.
type Profile struct {
	Scenario          Scenario
	UserSupplies      string
	ProviderNeeds     string
	DeviceIndependent bool // portable across a device family or beyond
	ProviderCADTools  bool // service provider must possess synthesis tools
	RelativeEffort    int  // 1 (lowest user effort) … 4 (highest)
	RelativePerf      int  // 1 (lowest performance) … 4 (highest)
}

// Profiles returns the taxonomy table behind Fig. 1/Fig. 2.
func Profiles() []Profile {
	return []Profile{
		{SoftwareOnly, "application code + input data", "GPP node, or soft-core CPU fallback on an RPE", true, false, 1, 1},
		{PredeterminedHW, "code compiled for a supported soft-core (issue slots, FUs, clusters selectable)", "soft-core bitstream library for its devices", true, false, 2, 2},
		{UserDefinedHW, "accelerator in generic HDL (VHDL/Verilog) + code + data", "synthesis CAD tools to emit device-specific bitstreams", true, true, 3, 3},
		{DeviceSpecificHW, "device-specific bitstream + code + data", "the exact device targeted by the developer", false, false, 4, 4},
	}
}

// Work is an architecture-neutral statement of a task's computational
// demand, which each processing-element model converts into an execution
// time. It is the t_estimated input of the paper's task tuple (Eq. 2).
type Work struct {
	// MInstructions is the dynamic instruction count in millions, the unit
	// Table I rates GPPs in (MIPS).
	MInstructions float64
	// ParallelFraction in [0,1] is the Amdahl-parallelizable share, which
	// multi-core GPPs, VLIW issue slots, GPU warps, and spatial hardware
	// exploit to different degrees.
	ParallelFraction float64
	// DataMB is the task's input volume, which the grid engine charges to
	// the hosting node's link before the task runs. No processing-element
	// model reads it.
	DataMB float64
	// HWSpeedup is the factor a dedicated hardware implementation of this
	// task achieves over the reference grid CPU (ReferenceMIPS); 0 means
	// no hardware implementation exists.
	HWSpeedup float64
}

// ReferenceMIPS is the contemporary reference grid CPU rate that hardware
// acceleration factors (Work.HWSpeedup, hdl.Design.AccelFactor) are quoted
// against — a 2010-era quad-core class machine. Serial remainders of
// accelerated tasks also execute at this rate on the accelerator's host.
const ReferenceMIPS = 40000

// Validate reports structurally impossible work descriptions.
func (w Work) Validate() error {
	switch {
	case w.MInstructions <= 0:
		return fmt.Errorf("pe: work has non-positive instruction count %g", w.MInstructions)
	case w.ParallelFraction < 0 || w.ParallelFraction > 1:
		return fmt.Errorf("pe: parallel fraction %g outside [0,1]", w.ParallelFraction)
	case w.DataMB < 0:
		return fmt.Errorf("pe: negative data volume %g", w.DataMB)
	case w.HWSpeedup < 0:
		return fmt.Errorf("pe: negative hardware speedup %g", w.HWSpeedup)
	}
	return nil
}

// Amdahl returns the speedup of n-way parallel execution for a workload
// with parallel fraction p.
func Amdahl(p float64, n float64) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / ((1 - p) + p/n)
}

// Estimator converts architecture-neutral work into an execution-time
// estimate in seconds on a concrete processing element. Each PE model
// package (gpp, softcore, gpu, and hardware designs from hdl) provides one.
type Estimator interface {
	// EstimateSeconds returns the predicted execution time.
	EstimateSeconds(w Work) (float64, error)
	// Kind identifies the Table I row of the underlying element.
	Kind() capability.Kind
}
