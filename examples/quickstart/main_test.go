package main

// Example pins the program's stdout, the two placements and the four
// abstraction levels, byte for byte.
func Example() {
	main()
	// Output:
	// preprocess (Software-only application):
	//   candidate: GPP0 <-> Node0
	//   placed on GPP0 <-> Node0: exec=1.476s reconfig=0µs synthesis=0s
	// transform (User-defined hardware configuration):
	//   candidate: RPE0 <-> Node0
	//   placed on RPE0 <-> Node0: exec=0.427s reconfig=4.815ms synthesis=451s
	//
	// abstraction levels (Fig. 2):
	//   grid nodes             -> [Node0 (2 processors)]
	//   soft-core CPUs         -> [Node0/RPE0: soft-core capable RPE (51840 slices)]
	//   reconfigurable fabric  -> [Node0/RPE0: Virtex-5 fabric, 51840 slices, 11664 Kb BRAM]
	//   specific devices       -> [Node0/RPE0: XC5VLX330T (XC5VLX330T: 1 configuration(s), 0 busy, 43466/51840 slices free)]
}
