package stream

import (
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/task"
)

// streamRig builds a hybrid grid (1 Xeon + 2 Virtex-5) with a manager.
func streamRig(t *testing.T) (*Manager, *sim.Simulator, *rms.Matchmaker) {
	t.Helper()
	reg := rms.NewRegistry()
	n, err := node.New("NodeA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGPP(capability.GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 8192, Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRPE("XC5VLX155T"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRPE("XC5VLX330T"); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddNode(n); err != nil {
		t.Fatal(err)
	}
	tc, err := hdl.NewToolchain("ise", "Virtex-5")
	if err != nil {
		t.Fatal(err)
	}
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewSimulator()
	mgr, err := NewManager(mm, s)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, s, mm
}

// hwStream is a high-rate stream only an accelerator can sustain.
func hwStream(id string, rate float64) Spec {
	design, _ := hdl.LookupIP("fir64")
	return Spec{
		ID:               id,
		RateMBps:         rate,
		MIPerMB:          2000,
		ParallelFraction: 0.98,
		Duration:         100,
		Req: task.ExecReq{
			Scenario:     pe.UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-5", 100),
			Design:       design,
		},
	}
}

// swStream is a modest stream a GPP can sustain.
func swStream(id string, rate float64) Spec {
	return Spec{
		ID:               id,
		RateMBps:         rate,
		MIPerMB:          500,
		ParallelFraction: 0.5,
		Duration:         50,
		Req: task.ExecReq{
			Scenario:     pe.SoftwareOnly,
			Requirements: task.GPPOnly(9000, 1024),
		},
	}
}

func TestSpecValidation(t *testing.T) {
	good := swStream("s", 10)
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{},
		{ID: "s"},
		{ID: "s", RateMBps: 1},
		{ID: "s", RateMBps: 1, MIPerMB: 1, ParallelFraction: 2, Duration: 1},
		{ID: "s", RateMBps: 1, MIPerMB: 1, HWSpeedup: -1, Duration: 1},
		{ID: "s", RateMBps: 1, MIPerMB: 1, Duration: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestAdmitSoftwareStream(t *testing.T) {
	mgr, _, _ := streamRig(t)
	sess, err := mgr.Admit(swStream("audio", 10))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Headroom < 1 {
		t.Errorf("admitted with headroom %v < 1", sess.Headroom)
	}
	if sess.Cand.Elem.Kind != capability.KindGPP {
		t.Errorf("software stream landed on %v", sess.Cand.Elem.Kind)
	}
	if mgr.Active() != 1 || mgr.Admitted != 1 {
		t.Error("bookkeeping")
	}
	if got, ok := mgr.active["audio"]; !ok || got != sess {
		t.Error("session not active under its ID")
	}
	if sess.DataMB() != 500 {
		t.Errorf("DataMB = %v", sess.DataMB())
	}
}

func TestHighRateStreamNeedsAccelerator(t *testing.T) {
	mgr, _, _ := streamRig(t)
	// 2000 MI/MB at 42,000 MIPS ≈ 21 MB/s tops on the Xeon; demand 200 MB/s.
	fast := hwStream("video", 200)
	sess, err := mgr.Admit(fast)
	if err != nil {
		t.Fatalf("accelerator admission failed: %v", err)
	}
	if sess.Cand.Elem.Kind != capability.KindFPGA {
		t.Errorf("high-rate stream landed on %v, want FPGA", sess.Cand.Elem.Kind)
	}
	// A rate beyond even the accelerator is rejected.
	impossible := hwStream("firehose", 1e9)
	if _, err := mgr.Admit(impossible); err == nil {
		t.Error("impossible rate admitted")
	}
	if mgr.Rejected != 1 {
		t.Errorf("Rejected = %d", mgr.Rejected)
	}
}

// TestAdmitFallsBackToNextFastest pins the admission order: the fastest
// element that sustains the rate, then, while that one is saturated, the
// next fastest, until every element that sustains it is saturated.
func TestAdmitFallsBackToNextFastest(t *testing.T) {
	mgr, _, _ := streamRig(t)
	fill := func(e *node.Element) {
		t.Helper()
		f := e.Fabric
		r, _, err := f.ConfigurePartial(fabric.PartialBitstream("hog", "k", f.Device(), f.State().AvailableSlices))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Acquire(r); err != nil {
			t.Fatal(err)
		}
	}
	first, err := mgr.Admit(hwStream("a", 100))
	if err != nil {
		t.Fatal(err)
	}
	fill(first.Cand.Elem)
	second, err := mgr.Admit(hwStream("b", 100))
	if err != nil {
		t.Fatalf("the next fastest element was not tried: %v", err)
	}
	if second.Cand.Elem == first.Cand.Elem || !(second.ThroughputMBps < first.ThroughputMBps) {
		t.Errorf("admitted on %s at %.1f MB/s after %s at %.1f MB/s, want the slower other RPE",
			second.Cand.Label(), second.ThroughputMBps, first.Cand.Label(), first.ThroughputMBps)
	}
	fill(second.Cand.Elem)
	if _, err := mgr.Admit(hwStream("c", 100)); err == nil || !strings.Contains(err.Error(), "saturated") {
		t.Errorf("with every sustaining element full, Admit = %v, want the saturated rejection", err)
	}
	if mgr.Rejected != 1 || mgr.Admitted != 2 {
		t.Errorf("admitted %d, rejected %d; want 2 and 1", mgr.Admitted, mgr.Rejected)
	}
}

func TestRejectedWhenGPPCannotSustainSoftwareRate(t *testing.T) {
	mgr, _, _ := streamRig(t)
	// 500 MI/MB on 42,000 MIPS with p=0.5 → well under 200 MB/s.
	if _, err := mgr.Admit(swStream("toofast", 500)); err == nil {
		t.Error("unsustainable software stream admitted")
	}
}

func TestSessionAutoReleasesAtEnd(t *testing.T) {
	mgr, s, _ := streamRig(t)
	sess, err := mgr.Admit(hwStream("video", 100))
	if err != nil {
		t.Fatal(err)
	}
	elem := sess.Cand.Elem
	if !elem.Busy() {
		t.Fatal("reservation not held")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != sess.End {
		t.Errorf("clock = %v, want %v", s.Now(), sess.End)
	}
	if elem.Busy() {
		t.Error("reservation not released at session end")
	}
	if mgr.Active() != 0 {
		t.Error("session still tracked")
	}
}

func TestEarlyCloseIsSafe(t *testing.T) {
	mgr, s, _ := streamRig(t)
	sess, err := mgr.Admit(hwStream("video", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err == nil {
		t.Error("double close accepted")
	}
	// The scheduled end event must not double-release.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if mgr.Active() != 0 {
		t.Error("session still tracked")
	}
}

func TestConcurrentStreamsCoResideOnOneFabric(t *testing.T) {
	mgr, _, _ := streamRig(t)
	// fir64 is small; several sessions fit one large device via partial
	// reconfiguration regions.
	a, err := mgr.Admit(hwStream("a", 50))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Admit(hwStream("b", 50))
	if err != nil {
		t.Fatalf("second stream rejected: %v", err)
	}
	if mgr.Active() != 2 {
		t.Error("both sessions should be live")
	}
	_ = a
	_ = b
}

func TestDuplicateStreamIDRejected(t *testing.T) {
	mgr, _, _ := streamRig(t)
	if _, err := mgr.Admit(swStream("dup", 5)); err != nil {
		t.Fatal(err)
	}
	_, err := mgr.Admit(swStream("dup", 5))
	if err == nil || !strings.Contains(err.Error(), "already active") {
		t.Errorf("duplicate ID: %v", err)
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}
