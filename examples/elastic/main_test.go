package main

// Example pins the program's stdout, the candidate counts as the FPGA
// node attaches and detaches, byte for byte.
func Example() {
	main()
	// Output:
	// before attach: 0 candidate(s) for fpga-job
	// after attach:  1 candidate(s): RPE0 <-> NodeFPGA
	// running on RPE0 <-> NodeFPGA (reconfiguration took 16.35ms)
	// detach while busy correctly refused: rms: node NodeFPGA element RPE0 is busy
	// idle node detached cleanly; grid is GPP-only again
	// after detach:  0 candidate(s) for fpga-job
}
