package reconvirt_test

import (
	"context"
	"fmt"
	"log"

	reconvirt "repro"
	"repro/internal/grid"
	"repro/internal/pe"
	"repro/internal/task"
)

// ExampleNewVirtualGrid is the README's Quickstart: a virtual grid with one
// hybrid node lands a user-defined-hardware task on the node's Virtex-5.
func ExampleNewVirtualGrid() {
	// A provider with CAD tools can serve user-defined hardware.
	tc, err := reconvirt.NewToolchain("Xilinx ISE", "Virtex-5")
	if err != nil {
		log.Fatal(err)
	}
	vg, err := reconvirt.NewVirtualGrid(reconvirt.GridOptions{Toolchain: tc})
	if err != nil {
		log.Fatal(err)
	}

	// One hybrid node: a Xeon next to a Virtex-5.
	n, err := reconvirt.NewNode("Node0")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := n.AddGPP(reconvirt.GPPCaps{CPUType: "Xeon E5540", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 4}); err != nil {
		log.Fatal(err)
	}
	if _, err := n.AddRPE("XC5VLX330T"); err != nil {
		log.Fatal(err)
	}
	if err := vg.AttachNode(n); err != nil {
		log.Fatal(err)
	}

	// A hardware task: generic VHDL in, device-specific bitstream out.
	fft, err := reconvirt.LookupIP("fft1024")
	if err != nil {
		log.Fatal(err)
	}
	t := &reconvirt.Task{
		ID:      "transform",
		Outputs: []task.DataOut{{DataID: "spectrum", SizeMB: 4}},
		ExecReq: reconvirt.ExecReq{
			Scenario:     reconvirt.UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-5", 1000),
			Design:       fft,
		},
		EstimatedSeconds: 10,
		Work:             pe.Work{MInstructions: 4e5, ParallelFraction: 0.97, HWSpeedup: fft.AccelFactor},
	}
	lease, cand, err := vg.Place(t) // synthesizes, reconfigures, leases
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s: %d slices, synthesis %.0fs, reconfiguration %v\n",
		t.ID, cand.Label(), cand.Slices, lease.SynthesisSeconds, lease.ReconfigDelay)
	if err := lease.Release(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// transform on RPE0 <-> Node0: 8374 slices, synthesis 451s, reconfiguration 4.815ms
}

// ExampleRunSweep is the README's parallel sweep: two strategies × 32
// seeds fanned across GOMAXPROCS workers. A replica's seed depends only on
// BaseSeed and its index, so the summaries do not depend on the worker
// count.
func ExampleRunSweep() {
	tc, err := reconvirt.NewToolchain("Xilinx ISE", "Virtex-4", "Virtex-5", "Virtex-6")
	if err != nil {
		log.Fatal(err)
	}
	var points []reconvirt.SweepPoint
	for _, strategy := range reconvirt.Strategies() {
		if name := strategy.Name(); name != "first-fit" && name != "reconfig-aware" {
			continue
		}
		cfg := reconvirt.DefaultEngineConfig()
		cfg.Strategy = strategy
		points = append(points, reconvirt.SweepPoint{
			Name:     strategy.Name(),
			Config:   cfg,
			Grid:     grid.DefaultGridSpec(),
			Workload: grid.DefaultWorkload(50, 2),
		})
	}

	res, err := reconvirt.RunSweep(context.Background(), reconvirt.SweepSpec{
		Points:       points, // one SweepPoint per experiment cell
		BaseSeed:     42,     // replica i gets NewRNG(42).SplitSeed(i)
		Replications: 32,     // or list explicit Seeds: []uint64{...}
		Workers:      0,      // 0 = GOMAXPROCS
		Toolchain:    tc,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Points {
		fmt.Printf("%-14s %d replicas, mean turnaround %.3f ± %.3f s\n",
			p.Name, p.Replicas, p.MeanTurnaround.Mean, p.MeanTurnaround.CI95)
	}
	// Output:
	// first-fit      32 replicas, mean turnaround 87.849 ± 13.127 s
	// reconfig-aware 32 replicas, mean turnaround 88.190 ± 13.271 s
}
