// Quickstart: build a virtual grid with one hybrid node, submit a hybrid
// application (one software task + one hardware-accelerated task), and
// watch the framework map each task to the right processing element.
package main

import (
	"fmt"
	"log"

	reconvirt "repro"
	"repro/internal/pe"
	"repro/internal/task"
)

func main() {
	// A service provider with synthesis CAD tools for Virtex-5 devices —
	// required to serve the user-defined-hardware scenario.
	toolchain, err := reconvirt.NewToolchain("Xilinx ISE", "Virtex-5")
	if err != nil {
		log.Fatal(err)
	}
	vg, err := reconvirt.NewVirtualGrid(reconvirt.GridOptions{Toolchain: toolchain})
	if err != nil {
		log.Fatal(err)
	}

	// One hybrid node: a quad-core Xeon next to a large Virtex-5.
	n, err := reconvirt.NewNode("Node0")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := n.AddGPP(reconvirt.GPPCaps{
		CPUType: "Intel Xeon E5540", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 4,
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := n.AddRPE("XC5VLX330T"); err != nil {
		log.Fatal(err)
	}
	if err := vg.AttachNode(n); err != nil {
		log.Fatal(err)
	}

	// A software-only task: the grid looks like a traditional grid.
	preprocess := &reconvirt.Task{
		ID:               "preprocess",
		Outputs:          []task.DataOut{{DataID: "chunks", SizeMB: 4}},
		ExecReq:          reconvirt.ExecReq{Scenario: reconvirt.SoftwareOnly, Requirements: task.GPPOnly(9000, 2048)},
		EstimatedSeconds: 2,
		Work:             pe.Work{MInstructions: 80000, ParallelFraction: 0.3, DataMB: 4},
	}

	// A hardware task: the user ships a generic VHDL FFT core; the provider
	// synthesizes it for whatever Virtex-5 it picks.
	fft, err := reconvirt.LookupIP("fft1024")
	if err != nil {
		log.Fatal(err)
	}
	transform := &reconvirt.Task{
		ID:     "transform",
		Inputs: []task.DataIn{{SourceTask: "preprocess", DataID: "chunks", SizeMB: 4}},
		Outputs: []task.DataOut{
			{DataID: "spectrum", SizeMB: 4},
		},
		ExecReq: reconvirt.ExecReq{
			Scenario:     reconvirt.UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-5", 1000),
			Design:       fft,
		},
		EstimatedSeconds: 10,
		Work:             pe.Work{MInstructions: 400000, ParallelFraction: 0.97, DataMB: 8, HWSpeedup: fft.AccelFactor},
	}

	for _, t := range []*reconvirt.Task{preprocess, transform} {
		cands, err := vg.MapTask(t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s):\n", t.ID, t.ExecReq.Scenario)
		for _, c := range cands {
			fmt.Printf("  candidate: %s\n", c.Label())
		}
		lease, cand, err := vg.Place(t)
		if err != nil {
			log.Fatal(err)
		}
		exec, err := lease.Estimator.EstimateSeconds(t.Work)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  placed on %s: exec=%.3fs reconfig=%v synthesis=%.0fs\n",
			cand.Label(), exec, lease.ReconfigDelay, lease.SynthesisSeconds)
		if err := lease.Release(); err != nil {
			log.Fatal(err)
		}
	}

	// The same node seen at the four abstraction levels of Fig. 2.
	fmt.Println("\nabstraction levels (Fig. 2):")
	for _, l := range []reconvirt.Level{reconvirt.LevelGrid, reconvirt.LevelSoftcore, reconvirt.LevelFabric, reconvirt.LevelDevice} {
		view := vg.ViewAt(l)
		fmt.Printf("  %-22s -> %v\n", l, view.Resources)
	}
}
