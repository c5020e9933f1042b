// Elastic: demonstrates the framework's runtime adaptivity claim — "the
// proposed node model is generic and adaptive in adding/removing resources
// at runtime". A task that no resource satisfies becomes schedulable the
// moment a matching node joins, and nodes leave cleanly when idle.
package main

import (
	"fmt"
	"log"

	reconvirt "repro"
	"repro/internal/pe"
	"repro/internal/task"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	toolchain, err := reconvirt.NewToolchain("Xilinx ISE", "Virtex-5", "Virtex-6")
	if err != nil {
		return err
	}
	vg, err := reconvirt.NewVirtualGrid(reconvirt.GridOptions{Toolchain: toolchain})
	if err != nil {
		return err
	}

	// Start with a GPP-only node.
	gppNode, err := reconvirt.NewNode("NodeCPU")
	if err != nil {
		return err
	}
	if _, err := gppNode.AddGPP(reconvirt.GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 8192, Cores: 4}); err != nil {
		return err
	}
	if err := vg.AttachNode(gppNode); err != nil {
		return err
	}

	// A device-specific task: needs an XC6VLX365T that does not exist yet.
	dev, err := reconvirt.LookupDevice("XC6VLX365T")
	if err != nil {
		return err
	}
	bs := deviceBitstream(dev)
	hw := &reconvirt.Task{
		ID:      "fpga-job",
		Outputs: []task.DataOut{{DataID: "out", SizeMB: 1}},
		ExecReq: reconvirt.ExecReq{
			Scenario:     reconvirt.DeviceSpecificHW,
			Requirements: task.FPGADevice("XC6VLX365T"),
			Bitstream:    bs,
		},
		EstimatedSeconds: 5,
		Work:             pe.Work{MInstructions: 200000, ParallelFraction: 0.95, HWSpeedup: 50},
	}

	cands, err := vg.MapTask(hw)
	if err != nil {
		return err
	}
	fmt.Printf("before attach: %d candidate(s) for %s\n", len(cands), hw.ID)

	// A resource owner contributes an FPGA node at runtime.
	fpgaNode, err := reconvirt.NewNode("NodeFPGA")
	if err != nil {
		return err
	}
	if _, err := fpgaNode.AddRPE("XC6VLX365T"); err != nil {
		return err
	}
	if err := vg.AttachNode(fpgaNode); err != nil {
		return err
	}
	cands, err = vg.MapTask(hw)
	if err != nil {
		return err
	}
	fmt.Printf("after attach:  %d candidate(s): %s\n", len(cands), cands[0].Label())

	// Run the task; while it holds the device, the node cannot leave.
	lease, cand, err := vg.Place(hw)
	if err != nil {
		return err
	}
	fmt.Printf("running on %s (reconfiguration took %v)\n", cand.Label(), lease.ReconfigDelay)
	if err := vg.DetachNode("NodeFPGA"); err != nil {
		fmt.Printf("detach while busy correctly refused: %v\n", err)
	}
	if err := lease.Release(); err != nil {
		return err
	}
	if err := vg.DetachNode("NodeFPGA"); err != nil {
		return err
	}
	fmt.Println("idle node detached cleanly; grid is GPP-only again")
	cands, err = vg.MapTask(hw)
	if err != nil {
		return err
	}
	fmt.Printf("after detach:  %d candidate(s) for %s\n", len(cands), hw.ID)
	return nil
}

// deviceBitstream builds the user's own full-device bitstream, as the
// device-specific scenario requires.
func deviceBitstream(dev reconvirt.Device) *reconvirt.Bitstream {
	return reconvirt.NewFullBitstream("user-design@XC6VLX365T", "user-design", dev, 42000)
}
