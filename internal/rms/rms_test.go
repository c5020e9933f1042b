package rms

import (
	"errors"
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
	if err := reg.AddNode(mkNode(t, "NodeA")); err == nil || err.Error() != "rms: duplicate node NodeA" {
		t.Errorf("duplicate node: %v", err)
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d", reg.Len())
	}
	if _, ok := reg.Node("NodeA"); !ok {
		t.Error("lookup failed")
	}
	b := mkNode(t, "NodeB")
	if err := reg.AddNode(b); err != nil {
		t.Fatal(err)
	}
	if err := reg.RemoveNode("NodeA"); err != nil {
		t.Fatal(err)
	}
	if err := reg.RemoveNode("NodeA"); err == nil || err.Error() != "rms: unknown node NodeA" {
		t.Errorf("double remove: %v", err)
	}
	// The node list is the only index: a removed ID no longer resolves,
	// and it can register again, after the nodes that stayed.
	if got, ok := reg.Node("NodeA"); ok || got != nil {
		t.Errorf("removed NodeA still resolves to %v", got)
	}
	a2 := mkNode(t, "NodeA")
	if err := reg.AddNode(a2); err != nil {
		t.Fatalf("re-adding NodeA: %v", err)
	}
	if got, ok := reg.Node("NodeA"); !ok || got != a2 {
		t.Error("re-added NodeA does not resolve to the new node")
	}
	if got := reg.Nodes(); len(got) != 2 || got[0] != b || got[1] != a2 {
		t.Errorf("registration order after re-add = %v", got)
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

// TestPredeterminedCandidatesZeroAllocs pins every request kind's
// candidate scan as allocation-free once warm: the engine calls
// Candidates for each queued task on every dispatch round, so a
// per-call allocation here scales with queue length × events. Each
// library core's capability set and design name are built with the
// core, synthesis results are cached, and the scan reuses the
// matchmaker's scratch buffers.
func TestPredeterminedCandidatesZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	n.AddGPP(xeon())
	n.AddRPE("XC5VLX110T")
	n.AddRPE("XC5VLX330T")
	if _, err := n.AddGPU(capability.GPUCaps{
		Model: "GT200", ShaderCores: 240, WarpSize: 32, SIMDWidth: 8, SharedKB: 16, MemFreqMHz: 1100,
	}, 1296); err != nil {
		t.Fatal(err)
	}
	n.AddRPE("XC6VLX365T")
	reg.AddNode(n)
	mm := newMM(t, reg)

	design, _ := hdl.LookupIP("fir64")
	dev, _ := fabric.LookupDevice("XC6VLX365T")
	for _, tc := range []struct {
		name string
		req  task.ExecReq
	}{
		{"software", task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(9000, 1024)}},
		// More RAM than the Xeon has: no GPP matches, so the task falls
		// back to a soft-core on an RPE.
		{"software-fallback", task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(100, 32768)}},
		{"softcore", task.ExecReq{
			Scenario:     pe.PredeterminedHW,
			SoftcoreISA:  "rvex-vliw",
			Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2),
		}},
		{"gpu", gpuReq()},
		{"user-defined", task.ExecReq{
			Scenario:     pe.UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-5", 100),
			Design:       design,
		}},
		{"device-specific", task.ExecReq{
			Scenario:     pe.DeviceSpecificHW,
			Requirements: task.FPGADevice("XC6VLX365T"),
			Bitstream:    fabric.FullBitstream("user", "custom", dev, 40000),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cands, err := mm.Candidates(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) == 0 {
				t.Fatal("no candidates: the pin would measure an empty scan")
			}
			if avg := testing.AllocsPerRun(100, func() {
				if _, err := mm.Candidates(tc.req); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("Candidates allocates %.2f times per call, want 0", avg)
			}
		})
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

// TestFailedPlacementCommitsNoSynthesis: a first synthesis whose placement
// fails is not cached, so the lease that finally places the design is
// charged its CAD time. Two busy malign-core regions leave an XC5VLX330T
// too little room for pairalign-core; once they are released, the next
// pairalign-core lease pays the synthesis.
func TestFailedPlacementCommitsNoSynthesis(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	if _, err := n.AddRPE("XC5VLX330T"); err != nil {
		t.Fatal(err)
	}
	reg.AddNode(n)
	mm := newMM(t, reg)
	mkReq := func(name string) task.ExecReq {
		d, err := hdl.LookupIP(name)
		if err != nil {
			t.Fatal(err)
		}
		return task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: task.FPGAFamily("Virtex-5", 100), Design: d}
	}
	allocate := func(req task.ExecReq) (*Lease, error) {
		t.Helper()
		cands, err := mm.Candidates(req)
		if err != nil || len(cands) != 1 {
			t.Fatalf("candidates: %+v %v", cands, err)
		}
		return mm.Allocate(cands[0], req)
	}
	malign, pairalign := mkReq("malign-core"), mkReq("pairalign-core")
	var busy []*Lease
	for i := 0; i < 2; i++ {
		l, err := allocate(malign)
		if err != nil {
			t.Fatal(err)
		}
		busy = append(busy, l)
	}
	cands, err := mm.Candidates(pairalign)
	if err != nil || len(cands) != 1 {
		t.Fatalf("candidates: %+v %v", cands, err)
	}
	est, err := mm.Estimate(cands[0], pairalign, sampleWork())
	if err != nil {
		t.Fatal(err)
	}
	if est.SynthesisSeconds <= 0 {
		t.Fatalf("pairalign-core estimate charges no synthesis: %+v", est)
	}
	if _, err := allocate(pairalign); !errors.Is(err, fabric.ErrNoRoom) {
		t.Fatalf("pairalign-core beside two busy malign-core regions: Allocate = %v, want %v", err, fabric.ErrNoRoom)
	}
	for _, l := range busy {
		if err := l.Release(); err != nil {
			t.Fatal(err)
		}
	}
	l, err := allocate(pairalign)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.SynthesisSeconds != est.SynthesisSeconds {
		t.Errorf("first placed pairalign-core lease charges %v s of synthesis, want %v s", l.SynthesisSeconds, est.SynthesisSeconds)
	}
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
