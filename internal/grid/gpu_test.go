package grid

import (
	"context"
	"testing"

	"repro/internal/capability"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sim"
)

func TestGridWithGPUNodes(t *testing.T) {
	gs := DefaultGridSpec()
	gs.GPUNodes = 2
	reg, err := BuildGrid(gs)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 6 {
		t.Fatalf("nodes = %d, want 6", reg.Len())
	}
	gpuCount := 0
	for _, n := range reg.Nodes() {
		gpuCount += len(n.ByKind(capability.KindGPU))
	}
	if gpuCount != 2 {
		t.Errorf("GPUs = %d", gpuCount)
	}
}

func TestWorkloadWithGPUShare(t *testing.T) {
	ws := DefaultWorkload(100, 1)
	ws.ShareGPU = 0.3
	ws.ShareUserHW = 0.2
	ws.ShareSoftcore = 0.1
	gen, err := Generate(sim.NewRNG(8), ws)
	if err != nil {
		t.Fatal(err)
	}
	gpuTasks := 0
	for _, g := range gen {
		if g.ExecReq.Requirements.Kind() == capability.KindGPU {
			gpuTasks++
			if g.Work.ParallelFraction < 0.9 {
				t.Error("GPU task insufficiently parallel")
			}
			if g.ExecReq.Scenario != pe.PredeterminedHW {
				t.Error("GPU task scenario wrong")
			}
		}
	}
	if gpuTasks < 15 {
		t.Errorf("GPU tasks = %d, want ≈30", gpuTasks)
	}
}

func TestGPUWorkloadCompletesEndToEnd(t *testing.T) {
	gs := DefaultGridSpec()
	gs.GPUNodes = 2
	ws := DefaultWorkload(60, 0.5)
	ws.ShareGPU = 0.4
	ws.ShareUserHW = 0.2
	ws.ShareSoftcore = 0
	tc, err := DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunScenario(context.Background(), ScenarioSpec{Seed: 3, Config: DefaultConfig(), Grid: gs, Workload: ws, Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 60 || m.Unfinished != 0 {
		t.Fatalf("completed=%d unfinished=%d", m.Completed, m.Unfinished)
	}
	if m.Utilization(capability.KindGPU) <= 0 {
		t.Error("GPU never used")
	}
	if m.EnergyJoules() <= 0 {
		t.Error("no energy accounted")
	}
}

func TestHybridUsesLessEnergyPerTask(t *testing.T) {
	// The paper's low-power objective: the hybrid grid completes the same
	// accelerator-friendly work with less energy per task than a GPP-only
	// grid, because accelerated execution shortens busy time on high-draw
	// CPUs.
	ws := DefaultWorkload(80, 0.4)
	ws.ShareUserHW = 0.6
	ws.ShareSoftcore = 0
	gen, err := Generate(sim.NewRNG(11), ws)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := DefaultToolchain()

	hybridReg, _ := BuildGrid(DefaultGridSpec())
	mmH, _ := rms.NewMatchmaker(hybridReg, tc)
	engH, _ := NewEngine(DefaultConfig(), hybridReg, mmH)
	engH.SubmitWorkload(gen)
	mh, err := engH.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	gs := DefaultGridSpec()
	gs.HybridNodes = 0
	gs.GPPNodes = 4
	gppReg, _ := BuildGrid(gs)
	mmG, _ := rms.NewMatchmaker(gppReg, nil)
	engG, _ := NewEngine(DefaultConfig(), gppReg, mmG)
	engG.SubmitWorkload(ToSoftwareOnly(gen))
	mg, err := engG.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if mh.JoulesPerTask() >= mg.JoulesPerTask() {
		t.Errorf("hybrid %.0f J/task not below GPP-only %.0f J/task",
			mh.JoulesPerTask(), mg.JoulesPerTask())
	}
}
