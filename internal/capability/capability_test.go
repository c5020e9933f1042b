package capability

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindFPGA: "FPGA", KindGPP: "GPP", KindSoftcore: "Softcore", KindGPU: "GPU", KindUnknown: "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("out-of-range kind should include numeric value")
	}
}

func TestValueAccessors(t *testing.T) {
	if Num(3).Number() != 3 || Num(3).Type() != TypeNumber {
		t.Error("Num broken")
	}
	if Text("x").TextValue() != "x" || Text("x").Type() != TypeText {
		t.Error("Text broken")
	}
	if Bool(true).Type() != TypeBool {
		t.Error("Bool broken")
	}
	if Num(2.5).String() != "2.5" || Text("ab").String() != "ab" || Bool(false).String() != "false" {
		t.Error("String formatting broken")
	}
}

// TestValueEqual: Values compare with ==, which holds exactly when type
// and payload match, because each constructor sets only its own payload.
func TestValueEqual(t *testing.T) {
	if Num(1) != Num(1) || Num(1) == Num(2) {
		t.Error("number equality broken")
	}
	if Text("a") != Text("a") || Text("a") == Text("A") {
		t.Error("text equality broken")
	}
	if Bool(true) != Bool(true) || Bool(true) == Bool(false) {
		t.Error("bool equality broken")
	}
	if Num(1) == Text("1") || Num(0) == Bool(false) || Text("") == Bool(false) {
		t.Error("cross-type equality should be false")
	}
}

func TestValueCompare(t *testing.T) {
	if c, err := Num(1).Compare(Num(2)); err != nil || c != -1 {
		t.Errorf("1 vs 2 = %d, %v", c, err)
	}
	if c, err := Text("Virtex-5").Compare(Text("virtex-5")); err != nil || c != 0 {
		t.Errorf("case-insensitive text compare = %d, %v", c, err)
	}
	if c, err := Bool(false).Compare(Bool(true)); err != nil || c != -1 {
		t.Errorf("bool compare = %d, %v", c, err)
	}
	if c, err := Bool(true).Compare(Bool(false)); err != nil || c != 1 {
		t.Errorf("bool compare = %d, %v", c, err)
	}
	if _, err := Num(1).Compare(Text("x")); err == nil {
		t.Error("cross-type compare should error")
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		x, _ := Num(a).Compare(Num(b))
		y, _ := Num(b).Compare(Num(a))
		return x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetStringSorted(t *testing.T) {
	s := Set{"z": Num(1), "a": Num(2)}
	if got := s.String(); got != "a=2 z=1" {
		t.Errorf("String = %q", got)
	}
}

func TestTableICoversAllKinds(t *testing.T) {
	table := TableI()
	if len(table) < 25 {
		t.Fatalf("Table I catalog has only %d rows", len(table))
	}
	seen := map[Kind]int{}
	for _, d := range table {
		seen[d.Kind]++
		if d.Description == "" {
			t.Errorf("%s has no description", d.Param)
		}
		if KindOfParam(d.Param) != d.Kind {
			t.Errorf("%s: prefix kind %v != declared %v", d.Param, KindOfParam(d.Param), d.Kind)
		}
	}
	for _, k := range []Kind{KindFPGA, KindGPP, KindSoftcore, KindGPU} {
		if seen[k] < 5 {
			t.Errorf("kind %v has only %d parameters", k, seen[k])
		}
	}
}

func TestKindOfParam(t *testing.T) {
	if KindOfParam(ParamFPGASlices) != KindFPGA {
		t.Error("fpga prefix")
	}
	if KindOfParam(ParamGPPMIPS) != KindGPP {
		t.Error("gpp prefix")
	}
	if KindOfParam(ParamSoftIssueWidth) != KindSoftcore {
		t.Error("softcore prefix")
	}
	if KindOfParam(ParamGPUWarpSize) != KindGPU {
		t.Error("gpu prefix")
	}
	if KindOfParam("bogus.param") != KindUnknown {
		t.Error("unknown prefix")
	}
}
