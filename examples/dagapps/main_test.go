package main

// Example pins the program's stdout, both applications' schedules and
// metrics, byte for byte.
func Example() {
	main()
	// Output:
	// generated 10 applications, 67 tasks total
	//
	// first application as DOT:
	// digraph app0 {
	//   rankdir=LR;
	//   "app000-t00" [label="app000-t00\nSoftware-only application"];
	//   "app000-t01" [label="app000-t01\nUser-defined hardware configuration"];
	//   "app000-t02" [label="app000-t02\nUser-defined hardware configuration"];
	//   "app000-t03" [label="app000-t03\nSoftware-only application"];
	//   "app000-t04" [label="app000-t04\nUser-defined hardware configuration"];
	//   "app000-t05" [label="app000-t05\nPredetermined hardware configuration"];
	//   "app000-t06" [label="app000-t06\nUser-defined hardware configuration"];
	//   "app000-t07" [label="app000-t07\nSoftware-only application"];
	//   "app000-t08" [label="app000-t08\nSoftware-only application"];
	//   "app000-t01" -> "app000-t04" [label="out"];
	//   "app000-t03" -> "app000-t04" [label="out"];
	//   "app000-t00" -> "app000-t05" [label="out"];
	//   "app000-t02" -> "app000-t05" [label="out"];
	//   "app000-t03" -> "app000-t05" [label="out"];
	//   "app000-t04" -> "app000-t05" [label="out"];
	//   "app000-t02" -> "app000-t06" [label="out"];
	//   "app000-t03" -> "app000-t06" [label="out"];
	//   "app000-t04" -> "app000-t06" [label="out"];
	//   "app000-t00" -> "app000-t07" [label="out"];
	//   "app000-t01" -> "app000-t07" [label="out"];
	//   "app000-t02" -> "app000-t07" [label="out"];
	//   "app000-t06" -> "app000-t07" [label="out"];
	//   "app000-t01" -> "app000-t08" [label="out"];
	// }
	//
	// [reconfig-aware] done=67 unfinished=0 wait(mean=1.28s p95=0s) turnaround=102s makespan=2599.35s reconfigs=26 (0.119s, 47.8 MB) reuse=12 fallback=0 util{gpp=0% fpga=65%}
	//
	// element occupancy (Gantt):
	// Node0/GPP0 |###...#.......#...................#.....................................|
	// Node2/RPE0 |########################################################################|
	// Node2/RPE1 |###################################.....................................|
	// Node3/RPE0 |.##############.........................................................|
	// Node3/RPE1 |.########...............................................................|
	//             0                                                                2599.35s
	//             # complete  x failed  > in flight at end
}
