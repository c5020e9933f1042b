package rms

import (
	"errors"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/pe"
	"repro/internal/task"
)

// fragmentedFabric builds a checkerboard of idle configurations on one RPE
// so the next large placement requires defragmentation.
func fragmentedFabric(t *testing.T, mm *Matchmaker, reg *Registry) *fabric.Fabric {
	t.Helper()
	n := mkNode(t, "NodeA")
	elem, err := n.AddRPE("XC5VLX110T")
	if err != nil {
		t.Fatal(err)
	}
	reg.AddNode(n)
	f := elem.Fabric
	dev := f.Device()
	var regions []*fabric.Region
	for i := 0; i < 4; i++ {
		bs := fabric.PartialBitstream(string(rune('a'+i)), "k", dev, 4000)
		r, _, err := f.ConfigurePartial(bs)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	// Free slots 0 and 2 → 9,280 free, largest run 4,000.
	f.Evict(regions[0])
	f.Evict(regions[2])
	return f
}

func TestAllocationCompactsBeforeEvicting(t *testing.T) {
	reg := NewRegistry()
	mm := newMM(t, reg)
	f := fragmentedFabric(t, mm, reg)

	// fft1024 needs ≈8.4k slices: only a compacted fabric fits it without
	// evicting the resident configurations.
	design, err := hdl.LookupIP("fft1024")
	if err != nil {
		t.Fatal(err)
	}
	req := task.ExecReq{
		Scenario:     pe.UserDefinedHW,
		Requirements: task.FPGAFamily("Virtex-5", 100),
		Design:       design,
	}
	cands, err := mm.Candidates(req)
	if err != nil || len(cands) != 1 {
		t.Fatalf("candidates: %v %v", cands, err)
	}
	lease, err := mm.Allocate(cands[0], req)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if lease.CompactionMoves == 0 || lease.CompactionDelay <= 0 {
		t.Errorf("expected compaction: %+v", lease)
	}
	// Both resident configurations survived.
	st := f.State()
	if len(st.Configurations) != 3 { // b, d, and the new fft region
		t.Errorf("configurations after compaction = %v", st.Configurations)
	}
}

func TestDisableCompactionFallsBackToEviction(t *testing.T) {
	reg := NewRegistry()
	mm := newMM(t, reg)
	mm.DisableCompaction = true
	f := fragmentedFabric(t, mm, reg)

	design, err := hdl.LookupIP("fft1024")
	if err != nil {
		t.Fatal(err)
	}
	req := task.ExecReq{
		Scenario:     pe.UserDefinedHW,
		Requirements: task.FPGAFamily("Virtex-5", 100),
		Design:       design,
	}
	cands, _ := mm.Candidates(req)
	lease, err := mm.Allocate(cands[0], req)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if lease.CompactionMoves != 0 {
		t.Error("compaction ran despite being disabled")
	}
	// Eviction destroyed at least one resident configuration.
	st := f.State()
	if len(st.Configurations) >= 3 {
		t.Errorf("expected evictions, configurations = %v", st.Configurations)
	}
}

// TestFailedPlacementZeroAllocs pins the failure path, the common case on
// a loaded grid, as allocation-free: a soft-core placement on a fabric
// whose busy regions leave no room compacts, finds nothing idle to evict
// and fails with the fabric's sentinel, building nothing on the way.
func TestFailedPlacementZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	n := mkNode(t, "NodeA")
	elem, err := n.AddRPE("XC5VLX110T") // 17,280 slices
	if err != nil {
		t.Fatal(err)
	}
	reg.AddNode(n)
	mm := newMM(t, reg)
	f := elem.Fabric
	// Busy regions at [0,4000) and [8000,12000) leave 4,000 + 5,280 free.
	var regions []*fabric.Region
	for i := 0; i < 4; i++ {
		r, _, err := f.ConfigurePartial(fabric.PartialBitstream(string(rune('a'+i)), "k", f.Device(), 4000))
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for i, r := range regions {
		if i%2 == 0 {
			err = f.Acquire(r)
		} else {
			err = f.Evict(r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	req := task.ExecReq{
		Scenario:     pe.PredeterminedHW,
		SoftcoreISA:  "rvex-vliw",
		Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 8),
	}
	cands, err := mm.Candidates(req)
	if err != nil || len(cands) != 1 {
		t.Fatalf("candidates: %+v %v", cands, err)
	}
	cand := cands[0]
	if cand.Slices <= f.State().LargestFree {
		t.Fatalf("setup: a %d-slice core fits the %d-slice gap", cand.Slices, f.State().LargestFree)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := mm.Allocate(cand, req); !errors.Is(err, fabric.ErrNoRoom) {
			t.Fatalf("Allocate = %v, want ErrNoRoom", err)
		}
	}); avg != 0 {
		t.Errorf("failed placement allocates %.1f times per call, want 0", avg)
	}
}
