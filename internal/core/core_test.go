package core

import (
	"strings"
	"testing"

	"repro/internal/capability"
	"repro/internal/hdl"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/task"
)

func vgrid(t *testing.T) *VirtualGrid {
	t.Helper()
	tc, err := hdl.NewToolchain("ise", "Virtex-5", "Virtex-6")
	if err != nil {
		t.Fatal(err)
	}
	vg, err := NewVirtualGrid(Options{Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	return vg
}

func hybridNode(t *testing.T, id string) *node.Node {
	t.Helper()
	n, err := node.New(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGPP(capability.GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 8192, Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRPE("XC5VLX330T"); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLevelScenarioRoundTrip(t *testing.T) {
	for _, l := range Levels() {
		if LevelOf(ScenarioOf(l)) != l {
			t.Errorf("level %v does not round-trip", l)
		}
	}
	for _, s := range []pe.Scenario{pe.SoftwareOnly, pe.PredeterminedHW, pe.UserDefinedHW, pe.DeviceSpecificHW} {
		if ScenarioOf(LevelOf(s)) != s {
			t.Errorf("scenario %v does not round-trip", s)
		}
	}
	if LevelGrid.String() != "grid nodes" || Level(9).String() == "" {
		t.Error("level names")
	}
}

func TestLevelsOrderedMostAbstractFirst(t *testing.T) {
	ls := Levels()
	if len(ls) != 4 || ls[0] != LevelGrid || ls[3] != LevelDevice {
		t.Errorf("levels = %v", ls)
	}
}

func TestAttachDetachRuntime(t *testing.T) {
	vg := vgrid(t)
	if err := vg.AttachNode(hybridNode(t, "NodeA")); err != nil {
		t.Fatal(err)
	}
	if vg.reg.Len() != 1 {
		t.Error("attach failed")
	}
	if err := vg.DetachNode("NodeA"); err != nil {
		t.Fatal(err)
	}
	if vg.reg.Len() != 0 {
		t.Error("detach failed")
	}
	if err := vg.DetachNode("NodeA"); err == nil {
		t.Error("double detach accepted")
	}
}

func TestMapTaskAcrossLevels(t *testing.T) {
	vg := vgrid(t)
	vg.AttachNode(hybridNode(t, "NodeA"))
	design, _ := hdl.LookupIP("fir64")
	sw := &task.Task{
		ID:               "sw",
		Outputs:          []task.DataOut{{DataID: "o", SizeMB: 1}},
		ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(9000, 1024)},
		EstimatedSeconds: 1,
		Work:             pe.Work{MInstructions: 1000, ParallelFraction: 0.5},
	}
	hw := &task.Task{
		ID:               "hw",
		Outputs:          []task.DataOut{{DataID: "o", SizeMB: 1}},
		ExecReq:          task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: task.FPGAFamily("Virtex-5", 100), Design: design},
		EstimatedSeconds: 1,
		Work:             pe.Work{MInstructions: 1000, ParallelFraction: 0.9},
	}
	swCands, err := vg.MapTask(sw)
	if err != nil || len(swCands) != 1 || swCands[0].Elem.Kind != capability.KindGPP {
		t.Errorf("software mapping = %+v, %v", swCands, err)
	}
	hwCands, err := vg.MapTask(hw)
	if err != nil || len(hwCands) != 1 || hwCands[0].Elem.Kind != capability.KindFPGA {
		t.Errorf("hardware mapping = %+v, %v", hwCands, err)
	}
	if _, err := vg.MapTask(&task.Task{}); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestPlaceAndRelease(t *testing.T) {
	vg := vgrid(t)
	vg.AttachNode(hybridNode(t, "NodeA"))
	sw := &task.Task{
		ID:               "sw",
		Outputs:          []task.DataOut{{DataID: "o", SizeMB: 1}},
		ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(9000, 1024)},
		EstimatedSeconds: 1,
		Work:             pe.Work{MInstructions: 1000, ParallelFraction: 0.5},
	}
	lease, cand, err := vg.Place(sw)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Elem.FreeCores() != 3 {
		t.Error("core not held")
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	// No matching resource.
	impossible := *sw
	impossible.ExecReq = task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(9e9, 1)}
	if _, _, err := vg.Place(&impossible); err == nil {
		t.Error("impossible placement accepted")
	}
}

func TestViewsHideDetailByLevel(t *testing.T) {
	vg := vgrid(t)
	vg.AttachNode(hybridNode(t, "NodeA"))
	gridView := vg.ViewAt(LevelGrid)
	if len(gridView.Resources) != 1 || !strings.Contains(gridView.Resources[0], "NodeA") {
		t.Errorf("grid view = %+v", gridView)
	}
	if strings.Contains(gridView.Resources[0], "Virtex") {
		t.Error("grid-level view leaks fabric details")
	}
	fabricView := vg.ViewAt(LevelFabric)
	if len(fabricView.Resources) != 1 || !strings.Contains(fabricView.Resources[0], "Virtex-5") {
		t.Errorf("fabric view = %+v", fabricView)
	}
	if strings.Contains(fabricView.Resources[0], "XC5VLX330T") {
		t.Error("fabric-level view leaks the exact device")
	}
	devView := vg.ViewAt(LevelDevice)
	if !strings.Contains(devView.Resources[0], "XC5VLX330T") {
		t.Errorf("device view = %+v", devView)
	}
	scView := vg.ViewAt(LevelSoftcore)
	if !strings.Contains(scView.Resources[0], "soft-core") {
		t.Errorf("softcore view = %+v", scView)
	}
}
