package main

// Example pins the program's stdout, the admission decisions and the
// sessions' totals, byte for byte.
func Example() {
	main()
	// Output:
	// admitted camera-feed on RPE0 <-> EdgeNode: 500 MB/s sustainable (3.3x headroom), session [0µs, 600s]
	// admitted audio-feed on RPE0 <-> EdgeNode alongside the first stream (2 active sessions)
	// rejected firehose: stream: no element sustains 10000000.0 MB/s for firehose
	// t=600s: all sessions ended, 2 admitted / 1 rejected, 102000 MB processed on EdgeNode
}
