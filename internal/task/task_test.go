package task

import (
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/pe"
)

func validSoftwareTask(id string) *Task {
	return &Task{
		ID:               id,
		Outputs:          []DataOut{{DataID: "out", SizeMB: 1}},
		ExecReq:          ExecReq{Scenario: pe.SoftwareOnly, Requirements: GPPOnly(1000, 512)},
		EstimatedSeconds: 2,
		Work:             pe.Work{MInstructions: 2000, ParallelFraction: 0.5},
	}
}

func TestTaskValidate(t *testing.T) {
	if err := validSoftwareTask("T1").Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	var nilTask *Task
	if err := nilTask.Validate(); err == nil {
		t.Error("nil task accepted")
	}
	noID := validSoftwareTask("")
	if err := noID.Validate(); err == nil {
		t.Error("empty ID accepted")
	}
	negT := validSoftwareTask("T1")
	negT.EstimatedSeconds = -1
	if err := negT.Validate(); err == nil {
		t.Error("negative t_estimated accepted")
	}
	badWork := validSoftwareTask("T1")
	badWork.Work = pe.Work{}
	if err := badWork.Validate(); err == nil {
		t.Error("invalid work accepted")
	}
	dupOut := validSoftwareTask("T1")
	dupOut.Outputs = append(dupOut.Outputs, DataOut{DataID: "out", SizeMB: 1})
	if err := dupOut.Validate(); err == nil {
		t.Error("duplicate output accepted")
	}
	badIn := validSoftwareTask("T1")
	badIn.Inputs = []DataIn{{DataID: "", SizeMB: 1}}
	if err := badIn.Validate(); err == nil {
		t.Error("input without DataID accepted")
	}
}

func TestExecReqScenarioConsistency(t *testing.T) {
	dev, _ := fabric.LookupDevice("XC6VLX365T")
	bs := fabric.FullBitstream("user-bs", "custom", dev, 40000)
	design, _ := hdl.LookupIP("fir64")

	cases := []struct {
		name string
		req  ExecReq
		ok   bool
	}{
		{"software ok", ExecReq{Scenario: pe.SoftwareOnly, Requirements: GPPOnly(1, 1)}, true},
		{"software with design", ExecReq{Scenario: pe.SoftwareOnly, Requirements: GPPOnly(1, 1), Design: design}, false},
		{"predetermined ok", ExecReq{Scenario: pe.PredeterminedHW, Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 4), SoftcoreISA: "rvex-vliw"}, true},
		{"predetermined missing isa", ExecReq{Scenario: pe.PredeterminedHW, Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 4)}, false},
		{"userdef ok", ExecReq{Scenario: pe.UserDefinedHW, Requirements: FPGAFamily("Virtex-5", 100), Design: design}, true},
		{"userdef missing design", ExecReq{Scenario: pe.UserDefinedHW, Requirements: FPGAFamily("Virtex-5", 100)}, false},
		{"device ok", ExecReq{Scenario: pe.DeviceSpecificHW, Requirements: FPGADevice("XC6VLX365T"), Bitstream: bs}, true},
		{"device missing bitstream", ExecReq{Scenario: pe.DeviceSpecificHW, Requirements: FPGADevice("XC6VLX365T")}, false},
		{"empty requirements", ExecReq{Scenario: pe.SoftwareOnly}, false},
		{"unknown scenario", ExecReq{Scenario: pe.Scenario(99), Requirements: GPPOnly(1, 1)}, true}, // validated below
	}
	for _, c := range cases {
		err := c.req.Validate()
		if c.name == "unknown scenario" {
			if err == nil {
				t.Error("unknown scenario accepted")
			}
			continue
		}
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRequirementBuilders(t *testing.T) {
	if GPPOnly(5000, 1024).Kind() != capability.KindGPP {
		t.Error("GPPOnly kind")
	}
	f := FPGAFamily("Virtex-5", 18707)
	if f.Kind() != capability.KindFPGA || len(f) != 2 {
		t.Error("FPGAFamily shape")
	}
	d := FPGADevice("xc6vlx365t")
	ok, err := d.SatisfiedBy(capability.Set{capability.ParamFPGADevice: capability.Text("XC6VLX365T")})
	if err != nil || !ok {
		t.Errorf("FPGADevice match: %v %v", ok, err)
	}
}

func TestDependsOnDeduplicates(t *testing.T) {
	tk := validSoftwareTask("T9")
	tk.Inputs = []DataIn{
		{SourceTask: "T1", DataID: "a", SizeMB: 1},
		{SourceTask: "T1", DataID: "b", SizeMB: 1},
		{SourceTask: "T2", DataID: "c", SizeMB: 1},
		{SourceTask: "", DataID: "user", SizeMB: 1},
	}
	deps := tk.DependsOn()
	if len(deps) != 2 || deps[0] != "T1" || deps[1] != "T2" {
		t.Errorf("DependsOn = %v", deps)
	}
	if tk.InputMB() != 4 {
		t.Errorf("InputMB = %v", tk.InputMB())
	}
}

func TestTaskString(t *testing.T) {
	s := validSoftwareTask("T3").String()
	if !strings.Contains(s, "T3") || !strings.Contains(s, "Software-only") {
		t.Errorf("String = %q", s)
	}
}

func TestSanitizeID(t *testing.T) {
	for _, ok := range []string{"T0", "task-9", "a_b"} {
		if err := sanitizeID(ok); err != nil {
			t.Errorf("good ID %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "a b", "x(", "t,"} {
		if err := sanitizeID(bad); err == nil {
			t.Errorf("bad ID %q accepted", bad)
		}
	}
}
