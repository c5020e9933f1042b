package power

import (
	"strings"
	"testing"

	"repro/internal/capability"
)

func TestProfilesShapeMatchesPaperClaim(t *testing.T) {
	gpp := Of(capability.KindGPP)
	fpga := Of(capability.KindFPGA)
	if fpga.ActiveWatts >= gpp.ActiveWatts {
		t.Error("FPGA active draw must be below a server CPU (the paper's low-power claim)")
	}
	if fpga.IdleWatts >= gpp.IdleWatts {
		t.Error("FPGA idle draw must be below a server CPU")
	}
	for _, k := range []capability.Kind{capability.KindGPP, capability.KindFPGA, capability.KindSoftcore, capability.KindGPU} {
		d := Of(k)
		if d.ActiveWatts <= 0 || d.IdleWatts < 0 || d.IdleWatts >= d.ActiveWatts {
			t.Errorf("%v draw implausible: %+v", k, d)
		}
	}
	if Of(capability.KindUnknown).ActiveWatts != 0 {
		t.Error("unknown kind should draw nothing")
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter()
	m.ChargeActive(capability.KindGPP, 10)  // 250 J
	m.ChargeIdle(capability.KindGPP, 10)    // 90 J
	m.ChargeActive(capability.KindFPGA, 10) // 200 J
	if got := m.ActiveJoules(capability.KindGPP); got != 250 {
		t.Errorf("GPP active = %v", got)
	}
	if got := m.IdleJoules(capability.KindGPP); got != 90 {
		t.Errorf("GPP idle = %v", got)
	}
	if got := m.TotalJoules(); got != 540 {
		t.Errorf("total = %v", got)
	}
	if !strings.Contains(m.String(), "kJ") {
		t.Error("String")
	}
}

// TestKindsOutsideEnumReadZero pins that per-kind arrays answer zero,
// not a panic, for a kind outside the enum.
func TestKindsOutsideEnumReadZero(t *testing.T) {
	m := NewMeter()
	for _, k := range []capability.Kind{-1, capability.KindGPU + 1, 99} {
		m.ChargeActive(k, 10)
		m.ChargeIdle(k, 10)
		if d := Of(k); d != (Draw{}) {
			t.Errorf("Of(%v) = %+v", k, d)
		}
		if m.ActiveJoules(k) != 0 || m.IdleJoules(k) != 0 {
			t.Errorf("%v reads nonzero energy", k)
		}
	}
	if got := m.TotalJoules(); got != 0 {
		t.Errorf("total = %v", got)
	}
}

// TestTotalJoulesAllocatesNothing pins the array sum: the gauge sampler
// calls TotalJoules on every sample.
func TestTotalJoulesAllocatesNothing(t *testing.T) {
	m := NewMeter()
	m.ChargeActive(capability.KindGPP, 10)
	m.ChargeActive(capability.KindFPGA, 3)
	m.ChargeIdle(capability.KindGPU, 2)
	if n := testing.AllocsPerRun(100, func() { _ = m.TotalJoules() }); n != 0 {
		t.Errorf("TotalJoules allocates %.0f times, want 0", n)
	}
}

func TestMeterRejectsNegative(t *testing.T) {
	m := NewMeter()
	defer func() {
		if recover() == nil {
			t.Error("negative charge accepted")
		}
	}()
	m.ChargeActive(capability.KindGPP, -1)
}
