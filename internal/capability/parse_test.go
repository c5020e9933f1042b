package capability

import (
	"testing"
	"testing/quick"
)

func TestParseRequirementsCaseStudyForm(t *testing.T) {
	// Exactly the Task1 predicate of the case study.
	reqs, err := ParseRequirements("fpga.family == Virtex-5 && fpga.slices >= 18707")
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("predicates = %d", len(reqs))
	}
	if reqs[0].Param != ParamFPGAFamily || reqs[0].Op != OpEq || reqs[0].Value.TextValue() != "Virtex-5" {
		t.Errorf("pred0 = %+v", reqs[0])
	}
	if reqs[1].Param != ParamFPGASlices || reqs[1].Op != OpGe || reqs[1].Value.Number() != 18707 {
		t.Errorf("pred1 = %+v", reqs[1])
	}
	big := sampleFPGA()
	big.Slices = 24320
	ok, err := reqs.SatisfiedBy(big.Set())
	if err != nil || !ok {
		t.Errorf("parsed requirements should match a 24,320-slice Virtex-5: %v %v", ok, err)
	}
}

func TestParseRequirementsValueTypes(t *testing.T) {
	reqs, err := ParseRequirements(`fpga.ethernet_mac == true && gpp.mips >= 9.6e3 && softcore.fu_types has-all "ALU,MUL"`)
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].Value != Bool(true) {
		t.Errorf("bool value = %+v", reqs[0].Value)
	}
	if reqs[1].Value.Type() != TypeNumber || reqs[1].Value.Number() != 9600 {
		t.Errorf("scientific number = %+v", reqs[1].Value)
	}
	if reqs[2].Op != OpHasAll || reqs[2].Value.TextValue() != "ALU,MUL" {
		t.Errorf("has-all = %+v", reqs[2])
	}
}

func TestParseRequirementsOperators(t *testing.T) {
	for _, src := range []string{
		"a.b == 1", "a.b != 1", "a.b >= 1", "a.b <= 1", "a.b > 1", "a.b < 1",
	} {
		reqs, err := ParseRequirements(src)
		if err != nil || len(reqs) != 1 {
			t.Errorf("ParseRequirements(%q): %v", src, err)
		}
	}
}

func TestParseRequirementsErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"fpga.slices",
		"fpga.slices >=",
		"fpga.slices ~ 3",
		"== 3",
		"fpga.slices >= 1 fpga.luts >= 2", // missing &&
		"fpga.slices >= 1 &&",
		`fpga.family == "unterminated`,
	}
	for _, src := range cases {
		if _, err := ParseRequirements(src); err == nil {
			t.Errorf("ParseRequirements(%q) accepted", src)
		}
	}
}

func TestParseRequirementsRoundTrip(t *testing.T) {
	orig := append(Requirements{}.
		Eq(ParamFPGAFamily, Text("Virtex-5")).
		Min(ParamFPGASlices, 30790),
		Requirement{ParamFPGAIOBs, OpLe, Num(960)})
	back, err := ParseRequirements(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != orig.String() {
		t.Errorf("round trip: %q vs %q", back.String(), orig.String())
	}
}

func TestParseRequirementsRoundTripProperty(t *testing.T) {
	params := []string{ParamFPGASlices, ParamGPPMIPS, ParamSoftIssueWidth, ParamGPUWarpSize}
	ops := []Op{OpEq, OpNe, OpGe, OpLe, OpGt, OpLt}
	f := func(pIdx, oIdx uint8, n uint32) bool {
		r := Requirements{Requirement{
			Param: params[int(pIdx)%len(params)],
			Op:    ops[int(oIdx)%len(ops)],
			Value: Num(float64(n)),
		}}
		back, err := ParseRequirements(r.String())
		if err != nil {
			return false
		}
		return back.String() == r.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
