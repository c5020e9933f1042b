package capability

import (
	"fmt"
	"math"
	"strings"
)

// FPGACaps is the typed form of the Table I FPGA row: everything the grid
// needs to know to decide whether a reconfigurable device can host a task.
type FPGACaps struct {
	Device        string  // part number, e.g. "XC5VLX110T"
	Family        string  // e.g. "Virtex-5"
	LogicCells    int     //
	Slices        int     //
	LUTs          int     //
	BRAMKb        int     // block RAM in Kb
	DSPSlices     int     //
	SpeedGradeMHz int     // max operating frequency
	ReconfigMBps  float64 // configuration-port bandwidth
	IOBs          int     //
	EthernetMAC   bool    //
	PartialRecon  bool    // dynamic partial reconfiguration
}

// Set renders the capabilities as a canonical capability set.
func (c FPGACaps) Set() Set {
	return Set{
		ParamFPGADevice:       Text(c.Device),
		ParamFPGAFamily:       Text(c.Family),
		ParamFPGALogicCells:   Num(float64(c.LogicCells)),
		ParamFPGASlices:       Num(float64(c.Slices)),
		ParamFPGALUTs:         Num(float64(c.LUTs)),
		ParamFPGABRAMKb:       Num(float64(c.BRAMKb)),
		ParamFPGADSPSlices:    Num(float64(c.DSPSlices)),
		ParamFPGASpeedGrade:   Num(float64(c.SpeedGradeMHz)),
		ParamFPGAReconfigMBps: Num(c.ReconfigMBps),
		ParamFPGAIOBs:         Num(float64(c.IOBs)),
		ParamFPGAEthernetMAC:  Bool(c.EthernetMAC),
		ParamFPGAPartialRecon: Bool(c.PartialRecon),
	}
}

// Kind implements the Capabilities interface.
func (c FPGACaps) Kind() Kind { return KindFPGA }

// String summarizes the device for logs and tables.
func (c FPGACaps) String() string {
	return fmt.Sprintf("FPGA %s (%s, %d slices, %d LUTs, %d Kb BRAM, %d DSP, %g MB/s cfg)",
		c.Device, c.Family, c.Slices, c.LUTs, c.BRAMKb, c.DSPSlices, c.ReconfigMBps)
}

// Validate reports structural problems with the capability description.
func (c FPGACaps) Validate() error {
	switch {
	case c.Device == "":
		return fmt.Errorf("capability: FPGA has no device name")
	case c.Family == "":
		return fmt.Errorf("capability: FPGA %s has no family", c.Device)
	case c.Slices <= 0:
		return fmt.Errorf("capability: FPGA %s has non-positive slices", c.Device)
	case !(c.ReconfigMBps > 0) || math.IsInf(c.ReconfigMBps, 1):
		return fmt.Errorf("capability: FPGA %s reconfiguration bandwidth must be positive and finite", c.Device)
	}
	return nil
}

// GPPCaps is the typed form of the Table I GPP row.
type GPPCaps struct {
	CPUType string  // e.g. "x86-64"
	MIPS    float64 // million instructions per second
	OS      string  // e.g. "Linux"
	RAMMB   int     // main memory
	Cores   int     // total cores
}

// Set renders the capabilities as a canonical capability set.
func (c GPPCaps) Set() Set {
	return Set{
		ParamGPPCPUType: Text(c.CPUType),
		ParamGPPMIPS:    Num(c.MIPS),
		ParamGPPOS:      Text(c.OS),
		ParamGPPRAMMB:   Num(float64(c.RAMMB)),
		ParamGPPCores:   Num(float64(c.Cores)),
	}
}

// Kind implements the Capabilities interface.
func (c GPPCaps) Kind() Kind { return KindGPP }

// String summarizes the processor.
func (c GPPCaps) String() string {
	return fmt.Sprintf("GPP %s (%g MIPS, %d cores, %d MB RAM, %s)", c.CPUType, c.MIPS, c.Cores, c.RAMMB, c.OS)
}

// Validate reports structural problems with the capability description.
func (c GPPCaps) Validate() error {
	switch {
	case c.CPUType == "":
		return fmt.Errorf("capability: GPP has no CPU type")
	case !(c.MIPS > 0) || math.IsInf(c.MIPS, 1):
		return fmt.Errorf("capability: GPP %s MIPS must be positive and finite", c.CPUType)
	case c.Cores <= 0:
		return fmt.Errorf("capability: GPP %s has non-positive cores", c.CPUType)
	}
	return nil
}

// SoftcoreCaps is the typed form of the Table I soft-core (VLIW) row — the
// parameter space of a ρ-VEX-style core that can be configured onto a
// fabric for the pre-determined-hardware scenario.
type SoftcoreCaps struct {
	ISA        string   // e.g. "rvex-vliw"
	FUTypes    []string // e.g. {"ALU","MUL","MEM"}
	IssueWidth int      // issue slots
	IMemKB     int      // instruction memory
	DMemKB     int      // data memory
	RegFile    int      // registers
	Pipeline   int      // pipeline stages
	Clusters   int      // cluster count
}

// Set renders the capabilities as a canonical capability set.
func (c SoftcoreCaps) Set() Set {
	return Set{
		ParamSoftISA:        Text(c.ISA),
		ParamSoftFUTypes:    Text(strings.Join(c.FUTypes, ",")),
		ParamSoftIssueWidth: Num(float64(c.IssueWidth)),
		ParamSoftIMemKB:     Num(float64(c.IMemKB)),
		ParamSoftDMemKB:     Num(float64(c.DMemKB)),
		ParamSoftRegFile:    Num(float64(c.RegFile)),
		ParamSoftPipeline:   Num(float64(c.Pipeline)),
		ParamSoftClusters:   Num(float64(c.Clusters)),
	}
}

// Kind implements the Capabilities interface.
func (c SoftcoreCaps) Kind() Kind { return KindSoftcore }

// String summarizes the core configuration.
func (c SoftcoreCaps) String() string {
	return fmt.Sprintf("Softcore %s (%d-issue, %d clusters, FUs=%s)", c.ISA, c.IssueWidth, c.Clusters, strings.Join(c.FUTypes, ","))
}

// Validate reports structural problems with the capability description.
func (c SoftcoreCaps) Validate() error {
	switch {
	case c.ISA == "":
		return fmt.Errorf("capability: softcore has no ISA")
	case c.IssueWidth <= 0:
		return fmt.Errorf("capability: softcore %s has non-positive issue width", c.ISA)
	case c.Clusters <= 0:
		return fmt.Errorf("capability: softcore %s has non-positive cluster count", c.ISA)
	}
	return nil
}

// GPUCaps is the typed form of the Table I GPU row.
type GPUCaps struct {
	Model       string
	ShaderCores int
	WarpSize    int
	SIMDWidth   int
	SharedKB    int // shared memory per core
	MemFreqMHz  float64
}

// Set renders the capabilities as a canonical capability set.
func (c GPUCaps) Set() Set {
	return Set{
		ParamGPUModel:       Text(c.Model),
		ParamGPUShaderCores: Num(float64(c.ShaderCores)),
		ParamGPUWarpSize:    Num(float64(c.WarpSize)),
		ParamGPUSIMDWidth:   Num(float64(c.SIMDWidth)),
		ParamGPUSharedKBPer: Num(float64(c.SharedKB)),
		ParamGPUMemFreqMHz:  Num(c.MemFreqMHz),
	}
}

// Kind implements the Capabilities interface.
func (c GPUCaps) Kind() Kind { return KindGPU }

// String summarizes the device.
func (c GPUCaps) String() string {
	return fmt.Sprintf("GPU %s (%d shader cores, warp %d)", c.Model, c.ShaderCores, c.WarpSize)
}

// Validate reports structural problems with the capability description.
func (c GPUCaps) Validate() error {
	switch {
	case c.Model == "":
		return fmt.Errorf("capability: GPU has no model")
	case c.ShaderCores <= 0:
		return fmt.Errorf("capability: GPU %s has non-positive shader cores", c.Model)
	case math.IsNaN(c.MemFreqMHz) || math.IsInf(c.MemFreqMHz, 0):
		return fmt.Errorf("capability: GPU %s memory frequency must be finite", c.Model)
	}
	return nil
}

// Capabilities is implemented by every typed Table I capability struct.
type Capabilities interface {
	// Kind identifies the Table I row.
	Kind() Kind
	// Set renders the capabilities as a canonical capability set.
	Set() Set
	// Validate reports structural problems.
	Validate() error
	fmt.Stringer
}

// Compile-time interface checks.
var (
	_ Capabilities = FPGACaps{}
	_ Capabilities = GPPCaps{}
	_ Capabilities = SoftcoreCaps{}
	_ Capabilities = GPUCaps{}
)
