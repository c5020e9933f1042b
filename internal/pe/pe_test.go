package pe

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestScenarioNames(t *testing.T) {
	want := map[Scenario]string{
		SoftwareOnly:     "Software-only application",
		PredeterminedHW:  "Predetermined hardware configuration",
		UserDefinedHW:    "User-defined hardware configuration",
		DeviceSpecificHW: "Device-specific hardware",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), n)
		}
	}
	if !strings.Contains(Scenario(9).String(), "9") {
		t.Error("unknown scenario should render numerically")
	}
}

// TestScenariosOrder: the taxonomy lists the four scenarios in Fig. 1
// order.
func TestScenariosOrder(t *testing.T) {
	ps := Profiles()
	want := []Scenario{SoftwareOnly, PredeterminedHW, UserDefinedHW, DeviceSpecificHW}
	if len(ps) != len(want) {
		t.Fatalf("Profiles() = %d entries", len(ps))
	}
	for i, p := range ps {
		if p.Scenario != want[i] {
			t.Errorf("row %d is %v, want %v", i, p.Scenario, want[i])
		}
	}
}

func TestProfilesMonotonicTradeoff(t *testing.T) {
	// The paper's Fig. 2 claim: lower abstraction ⇒ more user effort and
	// more performance. Profiles must be monotone in both.
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("%d profiles", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].RelativeEffort <= ps[i-1].RelativeEffort {
			t.Errorf("effort not increasing at %d", i)
		}
		if ps[i].RelativePerf <= ps[i-1].RelativePerf {
			t.Errorf("performance not increasing at %d", i)
		}
	}
}

func TestProfileProperties(t *testing.T) {
	byScenario := map[Scenario]Profile{}
	for _, p := range Profiles() {
		byScenario[p.Scenario] = p
	}
	if ud := byScenario[UserDefinedHW]; !ud.ProviderCADTools {
		t.Error("user-defined HW requires provider CAD tools (Section III-B2)")
	}
	ds := byScenario[DeviceSpecificHW]
	if ds.ProviderCADTools {
		t.Error("device-specific HW must NOT require provider CAD tools (Section III-B3)")
	}
	if ds.DeviceIndependent {
		t.Error("device-specific HW is not device independent")
	}
}

func TestWorkValidate(t *testing.T) {
	good := Work{MInstructions: 100, ParallelFraction: 0.5, DataMB: 1, HWSpeedup: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("good work rejected: %v", err)
	}
	bad := []Work{
		{MInstructions: 0},
		{MInstructions: 1, ParallelFraction: -0.1},
		{MInstructions: 1, ParallelFraction: 1.1},
		{MInstructions: 1, DataMB: -1},
		{MInstructions: 1, HWSpeedup: -1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad work %d accepted", i)
		}
	}
}

func TestAmdahl(t *testing.T) {
	if Amdahl(0, 8) != 1 {
		t.Error("sequential workload should not speed up")
	}
	if math.Abs(Amdahl(1, 8)-8) > 1e-12 {
		t.Error("fully parallel workload should scale linearly")
	}
	// Classic: p=0.5, n→∞ caps at 2.
	if s := Amdahl(0.5, 1e9); math.Abs(s-2) > 1e-6 {
		t.Errorf("Amdahl(0.5,∞) = %v, want 2", s)
	}
	if Amdahl(0.9, 1) != 1 {
		t.Error("single processor gives no speedup")
	}
}

func TestAmdahlBounds(t *testing.T) {
	f := func(pRaw, nRaw uint16) bool {
		p := float64(pRaw%1001) / 1000
		n := 1 + float64(nRaw%128)
		s := Amdahl(p, n)
		return s >= 1-1e-12 && s <= n+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseScenario(t *testing.T) {
	// Full names round-trip.
	for _, p := range Profiles() {
		s := p.Scenario
		back, err := ParseScenario(s.String())
		if err != nil || back != s {
			t.Errorf("ParseScenario(%q) = %v, %v", s.String(), back, err)
		}
	}
	// Short aliases.
	cases := map[string]Scenario{
		"software":         SoftwareOnly,
		"SOFTWARE-ONLY":    SoftwareOnly,
		"softcore":         PredeterminedHW,
		"predetermined":    PredeterminedHW,
		"user-defined":     UserDefinedHW,
		"device-specific":  DeviceSpecificHW,
		" devicespecific ": DeviceSpecificHW,
	}
	for in, want := range cases {
		got, err := ParseScenario(in)
		if err != nil || got != want {
			t.Errorf("ParseScenario(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScenario("quantum"); err == nil {
		t.Error("unknown scenario accepted")
	}
}
