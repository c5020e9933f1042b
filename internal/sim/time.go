// Package sim provides a deterministic discrete-event simulation kernel used
// by the grid simulator (the DReAMSim equivalent of the reproduced paper).
//
// The kernel is intentionally small: a virtual clock, a pending-event set
// ordered by (time, priority, sequence), a seeded pseudo-random number
// generator with the usual distributions, and online statistics collectors.
// Everything is deterministic given a seed, so simulation experiments are
// reproducible bit-for-bit.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds. It is a distinct type so that
// wall-clock durations cannot be accidentally mixed into simulation state.
type Time float64

// TimeZero is the start of simulated time.
const TimeZero Time = 0

// TimeInf sorts after every real event time; it is used as "never".
var TimeInf = Time(math.Inf(1))

// IsInf reports whether t is the "never" sentinel.
func (t Time) IsInf() bool { return math.IsInf(float64(t), 1) }

// String formats the time with engineering-friendly units.
func (t Time) String() string {
	switch {
	case t.IsInf():
		return "+inf"
	case t < 0:
		return fmt.Sprintf("%.6gs", float64(t))
	case t < 1e-3:
		return fmt.Sprintf("%.3gµs", float64(t)*1e6)
	case t < 1:
		return fmt.Sprintf("%.4gms", float64(t)*1e3)
	default:
		return fmt.Sprintf("%.6gs", float64(t))
	}
}
