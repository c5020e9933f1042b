package rms

import (
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/task"
)

func mkNode(t *testing.T, id string) *node.Node {
	t.Helper()
	n, err := node.New(id)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func xeon() capability.GPPCaps {
	return capability.GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 4}
}

func TestRegistryAddRemove(t *testing.T) {
	reg := NewRegistry()
	if err := reg.AddNode(nil); err == nil {
		t.Error("nil node accepted")
	}
	n := mkNode(t, "NodeA")
	if err := reg.AddNode(n); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddNode(mkNode(t, "NodeA")); err == nil {
		t.Error("duplicate node accepted")
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d", reg.Len())
	}
	if _, ok := reg.Node("NodeA"); !ok {
		t.Error("lookup failed")
	}
	if err := reg.RemoveNode("NodeA"); err != nil {
		t.Fatal(err)
	}
	if err := reg.RemoveNode("NodeA"); err == nil {
		t.Error("double remove accepted")
	}
}

func TestRegistryRemoveBusyNodeRefused(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	g, _ := n.AddGPP(xeon())
	reg.AddNode(n)
	g.AcquireCore()
	if err := reg.RemoveNode("NodeA"); err == nil {
		t.Error("node with busy element removed")
	}
	g.ReleaseCore()
	if err := reg.RemoveNode("NodeA"); err != nil {
		t.Errorf("idle node not removable: %v", err)
	}
}

func TestRegistryStatus(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddGPP(xeon())
	reg.AddNode(n)
	st := reg.Status()
	if len(st) != 1 || st[0].NodeID != "NodeA" {
		t.Errorf("status = %+v", st)
	}
}

func newMM(t *testing.T, reg *Registry) *Matchmaker {
	t.Helper()
	tc, err := hdl.NewToolchain("ise", "Virtex-4", "Virtex-5", "Virtex-6")
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

func TestNewMatchmakerValidation(t *testing.T) {
	if _, err := NewMatchmaker(nil, nil); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := NewMatchmaker(NewRegistry(), nil); err != nil {
		t.Errorf("nil toolchain should be allowed (provider without CAD tools): %v", err)
	}
}

func TestSoftwareMatchingPrefersGPPs(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddGPP(xeon())
	n.AddRPE("XC5VLX330T")
	reg.AddNode(n)
	mm := newMM(t, reg)
	req := task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(9000, 1024)}
	cands, err := mm.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Elem.ID != "GPP0" || cands[0].Fallback {
		t.Errorf("candidates = %+v", cands)
	}
	if cands[0].Label() != "GPP0 <-> NodeA" {
		t.Errorf("label = %s", cands[0].Label())
	}
}

func TestSoftwareFallbackToSoftcore(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	g, _ := n.AddGPP(xeon())
	n.AddRPE("XC5VLX330T")
	reg.AddNode(n)
	mm := newMM(t, reg)
	// Saturate the GPP.
	for i := 0; i < 4; i++ {
		g.AcquireCore()
	}
	// Low MIPS demand a soft-core can meet.
	req := task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(100, 16)}
	cands, err := mm.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || !cands[0].Fallback || cands[0].Core == nil {
		t.Fatalf("fallback candidates = %+v", cands)
	}
	if cands[0].Elem.ID != "RPE0" {
		t.Errorf("fallback element = %s", cands[0].Elem.ID)
	}
	// A demand beyond any soft-core yields nothing.
	req = task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(40000, 16)}
	cands, err = mm.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("impossible fallback produced %+v", cands)
	}
}

func TestPredeterminedMatching(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddRPE("XC5VLX110T")
	reg.AddNode(n)
	mm := newMM(t, reg)
	req := task.ExecReq{
		Scenario:     pe.PredeterminedHW,
		SoftcoreISA:  "rvex-vliw",
		Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 4),
	}
	cands, err := mm.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Core == nil {
		t.Fatalf("candidates = %+v", cands)
	}
	if cands[0].Core.Config().Caps.IssueWidth < 4 {
		t.Errorf("selected core issue width = %d", cands[0].Core.Config().Caps.IssueWidth)
	}
	// Unknown ISA matches nothing.
	req.SoftcoreISA = "nios"
	cands, _ = mm.Candidates(req)
	if len(cands) != 0 {
		t.Error("unknown ISA matched")
	}
}

// TestPredeterminedCandidatesZeroAllocs pins the soft-core scan as
// allocation-free once warm: each library core's capability set and
// design name are built with the core, not per core × RPE × call.
func TestPredeterminedCandidatesZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddRPE("XC5VLX110T")
	n.AddRPE("XC5VLX330T")
	reg.AddNode(n)
	mm := newMM(t, reg)
	req := task.ExecReq{
		Scenario:     pe.PredeterminedHW,
		SoftcoreISA:  "rvex-vliw",
		Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2),
	}
	cands, err := mm.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v, want one per RPE", cands)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := mm.Candidates(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("predetermined-hardware Candidates allocates %.1f times per call, want 0", avg)
	}
}

func TestUserDefinedNeedsToolchain(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddRPE("XC5VLX330T")
	reg.AddNode(n)
	noCAD, err := NewMatchmaker(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	design, _ := hdl.LookupIP("fir64")
	req := task.ExecReq{
		Scenario:     pe.UserDefinedHW,
		Requirements: task.FPGAFamily("Virtex-5", 100),
		Design:       design,
	}
	cands, err := noCAD.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Error("provider without CAD tools matched a user-defined-HW task (Section III-B2)")
	}
	withCAD := newMM(t, reg)
	cands, err = withCAD.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Errorf("CAD provider candidates = %+v", cands)
	}
}

func TestDeviceSpecificMatchesExactPartOnly(t *testing.T) {
	reg := NewRegistry()
	a := mkNode(t, "NodeA")
	a.AddRPE("XC6VLX365T")
	b := mkNode(t, "NodeB")
	b.AddRPE("XC6VLX240T") // same family, wrong part
	reg.AddNode(a)
	reg.AddNode(b)
	mm := newMM(t, reg)
	dev, _ := fabric.LookupDevice("XC6VLX365T")
	bs := fabric.FullBitstream("user", "custom", dev, 40000)
	req := task.ExecReq{
		Scenario:     pe.DeviceSpecificHW,
		Requirements: task.FPGADevice("XC6VLX365T"),
		Bitstream:    bs,
	}
	cands, err := mm.Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Node.ID != "NodeA" {
		t.Errorf("candidates = %+v", cands)
	}
}

func TestCandidatesRejectInvalidReq(t *testing.T) {
	mm := newMM(t, NewRegistry())
	if _, err := mm.Candidates(task.ExecReq{}); err == nil {
		t.Error("invalid ExecReq accepted")
	}
}

func TestAllocateGPPLease(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddGPP(xeon())
	reg.AddNode(n)
	mm := newMM(t, reg)
	req := task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(9000, 1024)}
	cands, _ := mm.Candidates(req)
	lease, err := mm.Allocate(cands[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if lease.ReconfigDelay != 0 || lease.Estimator == nil {
		t.Errorf("lease = %+v", lease)
	}
	if cands[0].Elem.FreeCores() != 3 {
		t.Error("core not acquired")
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	if err := lease.Release(); err == nil {
		t.Error("double release accepted")
	}
	if cands[0].Elem.FreeCores() != 4 {
		t.Error("core not released")
	}
}

func TestAllocateUserDefinedReconfiguresThenReuses(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddRPE("XC5VLX330T")
	reg.AddNode(n)
	mm := newMM(t, reg)
	design, _ := hdl.LookupIP("fir64")
	req := task.ExecReq{
		Scenario:     pe.UserDefinedHW,
		Requirements: task.FPGAFamily("Virtex-5", 100),
		Design:       design,
	}
	cands, _ := mm.Candidates(req)
	l1, err := mm.Allocate(cands[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if l1.ReconfigDelay <= 0 {
		t.Error("first allocation should pay reconfiguration")
	}
	if l1.SynthesisSeconds <= 0 {
		t.Error("first allocation should pay synthesis")
	}
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	// Second allocation: configuration is resident and idle — free reuse.
	cands2, _ := mm.Candidates(req)
	if !cands2[0].AlreadyLoaded {
		t.Error("matchmaker should see the resident configuration")
	}
	l2, err := mm.Allocate(cands2[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if l2.ReconfigDelay != 0 || l2.SynthesisSeconds != 0 {
		t.Errorf("reuse paid costs: %+v", l2)
	}
	l2.Release()
}

// TestResidentConfigurationOnFullReconfigDevice pins the reuse probe on a
// device without partial reconfiguration: Allocate loads a full image
// there, so a released configuration must be reported resident, as
// Estimate's zero reconfiguration delay already says it is.
func TestResidentConfigurationOnFullReconfigDevice(t *testing.T) {
	fir, _ := hdl.LookupIP("fir64")
	for _, tc := range []struct {
		name string
		req  task.ExecReq
	}{
		{"softcore", task.ExecReq{
			Scenario:     pe.PredeterminedHW,
			SoftcoreISA:  "rvex-vliw",
			Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 4),
		}},
		{"user-defined", task.ExecReq{
			Scenario:     pe.UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-4", 100),
			Design:       fir,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			n := mkNode(t, "NodeA")
			if _, err := n.AddRPE("XC4VLX60"); err != nil { // no partial reconfiguration
				t.Fatal(err)
			}
			reg.AddNode(n)
			mm := newMM(t, reg)
			cands, err := mm.Candidates(tc.req)
			if err != nil || len(cands) != 1 {
				t.Fatalf("candidates: %+v %v", cands, err)
			}
			lease, err := mm.Allocate(cands[0], tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if lease.ReconfigDelay <= 0 {
				t.Error("first allocation should pay reconfiguration")
			}
			if err := lease.Release(); err != nil {
				t.Fatal(err)
			}
			cands, err = mm.Candidates(tc.req)
			if err != nil || len(cands) != 1 {
				t.Fatalf("candidates: %+v %v", cands, err)
			}
			if !cands[0].AlreadyLoaded {
				t.Error("resident full-device configuration not reported as loaded")
			}
			est, err := mm.Estimate(cands[0], tc.req, sampleWork())
			if err != nil {
				t.Fatal(err)
			}
			if est.ReconfigDelay != 0 {
				t.Errorf("estimate charges reconfiguration %v for a resident configuration", est.ReconfigDelay)
			}
		})
	}
}

func TestAllocateEvictsIdleConfigurations(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddRPE("XC5VLX110T") // 17,280 slices
	reg.AddNode(n)
	mm := newMM(t, reg)
	// Fill most of the device with one design, release it, then ask for
	// another design that only fits after eviction.
	big, _ := hdl.LookupIP("malign-core") // ≈18.7k slices: too big for 110T
	_ = big
	d1, _ := hdl.LookupIP("fft1024")
	d2, _ := hdl.LookupIP("aes128")
	mkReq := func(d *hdl.Design) task.ExecReq {
		return task.ExecReq{
			Scenario:     pe.UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-5", 100),
			Design:       d,
		}
	}
	// d1 occupies ~15k of 17k slices.
	c1, err := mm.Candidates(mkReq(d1))
	if err != nil || len(c1) == 0 {
		t.Fatalf("d1 candidates: %v %v", c1, err)
	}
	l1, err := mm.Allocate(c1[0], mkReq(d1))
	if err != nil {
		t.Fatal(err)
	}
	l1.Release()
	// d2 needs ~10k: must evict d1's idle region.
	c2, err := mm.Candidates(mkReq(d2))
	if err != nil || len(c2) == 0 {
		t.Fatalf("d2 candidates: %v %v", c2, err)
	}
	l2, err := mm.Allocate(c2[0], mkReq(d2))
	if err != nil {
		t.Fatalf("allocation with eviction failed: %v", err)
	}
	defer l2.Release()
	st := c2[0].Elem.Fabric.State()
	for _, id := range st.Configurations {
		if strings.Contains(id, "fft1024") {
			t.Error("idle fft1024 configuration not evicted")
		}
	}
}

func TestAllocateDeviceSpecificFullReconfig(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddRPE("XC6VLX365T")
	reg.AddNode(n)
	mm := newMM(t, reg)
	dev, _ := fabric.LookupDevice("XC6VLX365T")
	bs := fabric.FullBitstream("user", "custom", dev, 40000)
	req := task.ExecReq{
		Scenario:     pe.DeviceSpecificHW,
		Requirements: task.FPGADevice("XC6VLX365T"),
		Bitstream:    bs,
	}
	cands, _ := mm.Candidates(req)
	lease, err := mm.Allocate(cands[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if lease.ReconfigDelay <= 0 {
		t.Error("full reconfiguration should cost time")
	}
	// The estimator honours Work.HWSpeedup over the reference grid CPU.
	est, err := lease.Estimator.EstimateSeconds(pe.Work{MInstructions: 1000, ParallelFraction: 1, HWSpeedup: 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := 1000.0 / pe.ReferenceMIPS
	if est >= ref/9 {
		t.Errorf("device-specific estimate = %v, want ≈10x below the %vs reference", est, ref)
	}
	lease.Release()
}

func TestAllocateBusyGPPRejected(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	g, _ := n.AddGPP(capability.GPPCaps{CPUType: "x", MIPS: 10000, Cores: 1})
	reg.AddNode(n)
	mm := newMM(t, reg)
	req := task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 0)}
	cands, _ := mm.Candidates(req)
	g.AcquireCore() // stolen in between
	if _, err := mm.Allocate(cands[0], req); err == nil {
		t.Error("allocation on saturated GPP accepted")
	}
}
