package capability

import (
	"math"
	"strings"
	"testing"
)

func sampleFPGA() FPGACaps {
	return FPGACaps{
		Device: "XC5VLX110T", Family: "Virtex-5",
		LogicCells: 110592, Slices: 17280, LUTs: 69120, BRAMKb: 5328,
		DSPSlices: 64, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 680,
		EthernetMAC: true, PartialRecon: true,
	}
}

func TestFPGACapsSet(t *testing.T) {
	s := sampleFPGA().Set()
	if s[ParamFPGADevice].TextValue() != "XC5VLX110T" {
		t.Error("device missing")
	}
	if s[ParamFPGASlices].Number() != 17280 {
		t.Error("slices missing")
	}
	if !s[ParamFPGAEthernetMAC].BoolValue() {
		t.Error("MAC flag missing")
	}
	if len(s) != 12 {
		t.Errorf("FPGA set has %d entries, want 12", len(s))
	}
}

func TestFPGAValidate(t *testing.T) {
	if err := sampleFPGA().Validate(); err != nil {
		t.Errorf("valid FPGA rejected: %v", err)
	}
	bad := []FPGACaps{
		{},
		{Device: "X"},
		{Device: "X", Family: "F"},
		{Device: "X", Family: "F", Slices: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad FPGA %d accepted", i)
		}
	}
}

// TestCapsRejectNonFinite: NaN and ±Inf in a float capability are
// rejected. A NaN never equals itself, so such a description would also
// defeat every equality-keyed cache of capability sets.
func TestCapsRejectNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		gppCaps := GPPCaps{CPUType: "x86-64", MIPS: v, OS: "Linux", RAMMB: 8192, Cores: 4}
		if err := gppCaps.Validate(); err == nil {
			t.Errorf("GPP MIPS %v accepted", v)
		}
		fpga := sampleFPGA()
		fpga.ReconfigMBps = v
		if err := fpga.Validate(); err == nil {
			t.Errorf("FPGA ReconfigMBps %v accepted", v)
		}
		gpu := GPUCaps{Model: "GT200", ShaderCores: 240, WarpSize: 32, MemFreqMHz: v}
		if err := gpu.Validate(); err == nil {
			t.Errorf("GPU MemFreqMHz %v accepted", v)
		}
	}
}

func TestGPPCaps(t *testing.T) {
	g := GPPCaps{CPUType: "x86-64", MIPS: 50000, OS: "Linux", RAMMB: 8192, Cores: 4}
	s := g.Set()
	if s[ParamGPPMIPS].Number() != 50000 || s[ParamGPPCores].Number() != 4 {
		t.Error("GPP set wrong")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid GPP rejected: %v", err)
	}
	if err := (GPPCaps{CPUType: "x", MIPS: 1}).Validate(); err == nil {
		t.Error("GPP with zero cores accepted")
	}
	if err := (GPPCaps{}).Validate(); err == nil {
		t.Error("empty GPP accepted")
	}
	if g.Kind() != KindGPP {
		t.Error("kind")
	}
}

func TestSoftcoreCaps(t *testing.T) {
	c := SoftcoreCaps{
		ISA: "rvex-vliw", FUTypes: []string{"ALU", "MUL"}, IssueWidth: 4,
		IMemKB: 32, DMemKB: 32, RegFile: 64, Pipeline: 5, Clusters: 1,
	}
	s := c.Set()
	if s[ParamSoftFUTypes].TextValue() != "ALU,MUL" {
		t.Errorf("FU types = %q", s[ParamSoftFUTypes].TextValue())
	}
	if s[ParamSoftIssueWidth].Number() != 4 {
		t.Error("issue width")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("valid softcore rejected: %v", err)
	}
	if err := (SoftcoreCaps{ISA: "x", IssueWidth: 2}).Validate(); err == nil {
		t.Error("zero clusters accepted")
	}
	if c.Kind() != KindSoftcore {
		t.Error("kind")
	}
}

func TestGPUCaps(t *testing.T) {
	c := GPUCaps{Model: "GT200", ShaderCores: 240, WarpSize: 32, SIMDWidth: 8, SharedKB: 16, MemFreqMHz: 1100}
	s := c.Set()
	if s[ParamGPUWarpSize].Number() != 32 {
		t.Error("warp size")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("valid GPU rejected: %v", err)
	}
	if err := (GPUCaps{Model: "m"}).Validate(); err == nil {
		t.Error("zero shader cores accepted")
	}
	if c.Kind() != KindGPU {
		t.Error("kind")
	}
}

func TestCapsStrings(t *testing.T) {
	caps := []Capabilities{
		sampleFPGA(),
		GPPCaps{CPUType: "x86-64", MIPS: 1, Cores: 1},
		SoftcoreCaps{ISA: "rvex", IssueWidth: 2, Clusters: 1},
		GPUCaps{Model: "m", ShaderCores: 1},
	}
	for _, c := range caps {
		if c.String() == "" {
			t.Errorf("%T has empty String", c)
		}
	}
	if !strings.Contains(sampleFPGA().String(), "Virtex-5") {
		t.Error("FPGA String should mention family")
	}
}
