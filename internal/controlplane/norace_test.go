//go:build !race

package controlplane

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
