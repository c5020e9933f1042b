package main

// Example pins the program's stdout, the run's metrics, Gantt chart,
// timeline and per-replica counts, byte for byte.
func Example() {
	main()
	// Output:
	// run: [reconfig-aware] done=20 unfinished=4 wait(mean=19.2s p95=91.4s) turnaround=279s makespan=2609s reconfigs=16 (0.112s, 44.6 MB) reuse=0 fallback=0 util{gpp=0% fpga=49%} faults{crash=1 seu=7 link=0 expired=0 retries=7 lost=0 mttr=812s avail=99.81%}
	//
	// element occupancy (Gantt from the Recorder):
	// Node0/GPP0 |##......................................................................|
	// Node2/RPE0 |###########.............................................................|
	// Node2/RPE1 |########################################################################|
	// Node3/RPE0 |########................................................................|
	// Node3/RPE1 |.################.......................................................|
	//             0                                                                   2609s
	//             # complete  x failed  > in flight at end
	//
	// == Timeline (virtual-time weighted) ==
	// series            mean       max        final
	// ----------------  ---------  ---------  ---------
	// queue depth       3.969      4          4
	// retry backlog     0.002299   1          0
	// running           2.133      10         0
	// util gpp          0.0005109  0.08333    0
	// util fpga         0.5303     2.25       0
	// util gpu          0          0          0
	// fabric occupancy  0.7104     0.7166     0.7166
	// nodes down        0.007663   1          0
	// energy (J)        4.495e+04  6.777e+05  6.777e+05
	//
	// timeline: 1307 samples; trace: 110 events (27 dispatches, 7 retries)
	// streaming CSV: 4736 bytes; Chrome trace: 609244 bytes (load in ui.perfetto.dev)
	//
	// sweep with per-replica sinks:
	//   replica 0 (seed 1) finished: 1/4
	//   replica 1 (seed 2) finished: 2/4
	//   replica 2 (seed 3) finished: 3/4
	//   replica 3 (seed 4) finished: 4/4
	//   replica 0 saw 28 dispatches
	//   replica 1 saw 16 dispatches
	//   replica 2 saw 13 dispatches
	//   replica 3 saw 15 dispatches
}
