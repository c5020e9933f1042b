package capability

import (
	"strings"
	"testing"
)

func TestRequirementEvalNumbers(t *testing.T) {
	s := Set{ParamFPGASlices: Num(24000)}
	cases := []struct {
		op   Op
		v    float64
		want bool
	}{
		{OpGe, 18707, true},
		{OpGe, 24000, true},
		{OpGe, 30790, false},
		{OpLe, 30000, true},
		{OpEq, 24000, true},
		{OpNe, 24000, false},
		{OpGt, 24000, false},
		{OpLt, 24001, true},
	}
	for _, c := range cases {
		r := Requirement{ParamFPGASlices, c.op, Num(c.v)}
		got, err := r.Eval(s)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if got != c.want {
			t.Errorf("%v = %t, want %t", r, got, c.want)
		}
	}
}

func TestRequirementMissingParamFails(t *testing.T) {
	r := Requirement{ParamFPGASlices, OpGe, Num(1)}
	ok, err := r.Eval(Set{})
	if err != nil || ok {
		t.Errorf("missing param: ok=%t err=%v, want false,nil", ok, err)
	}
}

func TestRequirementTextCaseInsensitive(t *testing.T) {
	s := Set{ParamFPGAFamily: Text("Virtex-5")}
	r := Requirement{ParamFPGAFamily, OpEq, Text("virtex-5")}
	ok, err := r.Eval(s)
	if err != nil || !ok {
		t.Errorf("case-insensitive match failed: %t, %v", ok, err)
	}
}

func TestRequirementTypeMismatch(t *testing.T) {
	s := Set{ParamFPGAFamily: Text("Virtex-5")}
	r := Requirement{ParamFPGAFamily, OpGe, Num(5)}
	if _, err := r.Eval(s); err == nil {
		t.Error("type mismatch should error")
	}
}

func TestHasAll(t *testing.T) {
	s := Set{ParamSoftFUTypes: Text("ALU,MUL,MEM")}
	cases := []struct {
		want string
		ok   bool
	}{
		{"ALU", true},
		{"alu,mem", true},
		{"ALU,DIV", false},
		{"", true},
	}
	for _, c := range cases {
		r := Requirement{ParamSoftFUTypes, OpHasAll, Text(c.want)}
		ok, err := r.Eval(s)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if ok != c.ok {
			t.Errorf("has-all %q = %t, want %t", c.want, ok, c.ok)
		}
	}
	bad := Requirement{ParamFPGASlices, OpHasAll, Text("x")}
	if _, err := bad.Eval(Set{ParamFPGASlices: Num(1)}); err == nil {
		t.Error("has-all on number should error")
	}
}

func TestRequirementsFluentAndSatisfied(t *testing.T) {
	// The paper's Task1: Virtex-5 device with at least 18,707 slices.
	reqs := Requirements{}.
		Eq(ParamFPGAFamily, Text("Virtex-5")).
		Min(ParamFPGASlices, 18707)
	ok, err := reqs.SatisfiedBy(sampleFPGA().Set())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("17,280-slice LX110T should NOT satisfy Task1's 18,707 minimum")
	}
	big := sampleFPGA()
	big.Slices = 24320
	ok, err = reqs.SatisfiedBy(big.Set())
	if err != nil || !ok {
		t.Errorf("24,320-slice device should satisfy Task1: %t, %v", ok, err)
	}
}

func TestRequirementsKind(t *testing.T) {
	fpga := Requirements{}.Min(ParamFPGASlices, 1)
	if fpga.Kind() != KindFPGA {
		t.Error("fpga kind")
	}
	mixed := Requirements{}.Min(ParamFPGASlices, 1).Min(ParamGPPMIPS, 1)
	if mixed.Kind() != KindUnknown {
		t.Error("mixed requirements should have unknown kind")
	}
}

func TestRequirementsValidate(t *testing.T) {
	if err := (Requirements{}).Validate(); err == nil {
		t.Error("empty requirements accepted")
	}
	mixed := Requirements{}.Min(ParamFPGASlices, 1).Min(ParamGPPMIPS, 1)
	if err := mixed.Validate(); err == nil {
		t.Error("mixed-kind requirements accepted")
	}
	good := Requirements{}.Min(ParamGPPMIPS, 1000)
	if err := good.Validate(); err != nil {
		t.Errorf("good requirements rejected: %v", err)
	}
}

func TestRequirementsString(t *testing.T) {
	reqs := Requirements{}.Eq(ParamFPGAFamily, Text("Virtex-5")).Min(ParamFPGASlices, 100)
	s := reqs.String()
	if !strings.Contains(s, "&&") || !strings.Contains(s, ">=") {
		t.Errorf("String = %q", s)
	}
	if (Op(42)).String() == "" {
		t.Error("unknown op should still render")
	}
}

func TestSatisfiedByPropagatesErrors(t *testing.T) {
	reqs := Requirements{{ParamFPGAFamily, OpGe, Num(1)}}
	if _, err := reqs.SatisfiedBy(Set{ParamFPGAFamily: Text("v5")}); err == nil {
		t.Error("type error should propagate")
	}
}
