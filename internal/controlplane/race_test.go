//go:build race

package controlplane

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of what is put back, so an allocation count that relies
// on a pool does not hold under it.
const raceEnabled = true
