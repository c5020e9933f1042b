package main

// Example pins the program's stdout, the kernel's results and cycle
// counts, byte for byte.
func Example() {
	main()
	// Output:
	// core: softcore rvex-vliw @150 MHz (6728 slices, 360 effective MIPS)
	// constraints: 4-issue, 1 MUL, 1 MEM
	//
	// result:  r10 = 1574400 (expect 1574400)
	// cycles:  6146, instructions: 8195, IPC: 1.33
	// at 150 MHz this kernel takes 41.0 µs on the soft-core
	// effective rate: 200 MIPS measured vs 360 MIPS modelled (full-ILP assumption)
}
