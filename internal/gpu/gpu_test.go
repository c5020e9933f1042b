package gpu

import (
	"testing"

	"repro/internal/capability"
	"repro/internal/pe"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(capability.GPUCaps{}, 1000); err == nil {
		t.Error("empty caps accepted")
	}
	if _, err := New(capability.GPUCaps{Model: "m", ShaderCores: 8}, 0); err == nil {
		t.Error("zero clock accepted")
	}
}

func TestPresetGT200(t *testing.T) {
	d := PresetGT200()
	if d.Caps.ShaderCores != 240 || d.Kind() != capability.KindGPU {
		t.Errorf("preset = %+v", d.Caps)
	}
	if d.String() == "" {
		t.Error("String")
	}
}

func TestParallelWorkMuchFaster(t *testing.T) {
	d := PresetGT200()
	seq, err := d.EstimateSeconds(pe.Work{MInstructions: 10000, ParallelFraction: 0})
	if err != nil {
		t.Fatal(err)
	}
	par, err := d.EstimateSeconds(pe.Work{MInstructions: 10000, ParallelFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq/par < 50 {
		t.Errorf("GPU speedup on fully parallel work = %v, want ≫50", seq/par)
	}
}

func TestSerialFractionDominates(t *testing.T) {
	d := PresetGT200()
	half, _ := d.EstimateSeconds(pe.Work{MInstructions: 10000, ParallelFraction: 0.5})
	full, _ := d.EstimateSeconds(pe.Work{MInstructions: 10000, ParallelFraction: 1})
	if half < full {
		t.Error("adding serial work should slow the GPU down")
	}
	if _, err := d.EstimateSeconds(pe.Work{}); err == nil {
		t.Error("invalid work accepted")
	}
}

func TestWarpEfficiencyBounds(t *testing.T) {
	if warpEfficiency(1) != 1 {
		t.Error("warp of 1 should be fully efficient")
	}
	for _, w := range []int{2, 16, 32, 64, 128, 512} {
		e := warpEfficiency(w)
		if e <= 0 || e > 1 {
			t.Errorf("warpEfficiency(%d) = %v out of (0,1]", w, e)
		}
	}
	if warpEfficiency(512) != 0.25 {
		t.Error("efficiency floor should clamp at 0.25")
	}
}

// PresetGT200 returns a Tesla-class GPU of the paper's era (GT200: 240
// shader cores, warp 32).
func PresetGT200() *Device {
	d, err := New(capability.GPUCaps{
		Model: "GT200", ShaderCores: 240, WarpSize: 32, SIMDWidth: 8,
		SharedKB: 16, MemFreqMHz: 1100,
	}, 1296)
	if err != nil {
		panic(err) // preset is statically valid
	}
	return d
}
