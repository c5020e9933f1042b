// Package power models processing-element power draw, quantifying the
// paper's first framework objective: "More performance can be achieved by
// utilizing reconfigurable hardware, at lower power."
//
// The model is deliberately coarse — per-kind active and idle draws of
// 2010-era parts — because the framework's energy argument rests on the
// ratio between a multi-core server CPU and a mid-size FPGA accelerator,
// not on watt-level accuracy.
package power

import (
	"fmt"

	"repro/internal/capability"
)

// Draw is a power operating point in watts.
type Draw struct {
	// ActiveWatts is drawn while executing a task.
	ActiveWatts float64
	// IdleWatts is drawn while powered but idle.
	IdleWatts float64
}

// profiles are era-typical draws. GPP draw is PER CORE (a quad-core Xeon
// node burns ~100 W under load), matching the engine's core-second
// accounting; FPGA, soft-core, and GPU draws are per device.
var profiles = [capability.NumKinds]Draw{
	capability.KindGPP:      {ActiveWatts: 25, IdleWatts: 9},
	capability.KindFPGA:     {ActiveWatts: 20, IdleWatts: 2},
	capability.KindSoftcore: {ActiveWatts: 12, IdleWatts: 2},
	capability.KindGPU:      {ActiveWatts: 200, IdleWatts: 40},
}

// inEnum reports whether kind indexes the per-kind arrays.
func inEnum(kind capability.Kind) bool {
	return kind >= 0 && int(kind) < capability.NumKinds
}

// Meter accumulates energy per PE kind over a simulation.
type Meter struct {
	activeJ [capability.NumKinds]float64
	idleJ   [capability.NumKinds]float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{}
}

// ChargeActive records busy seconds on an element kind.
func (m *Meter) ChargeActive(kind capability.Kind, seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("power: negative active charge %g", seconds))
	}
	if inEnum(kind) {
		m.activeJ[kind] += profiles[kind].ActiveWatts * seconds
	}
}

// ChargeIdle records powered-but-idle seconds on an element kind.
func (m *Meter) ChargeIdle(kind capability.Kind, seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("power: negative idle charge %g", seconds))
	}
	if inEnum(kind) {
		m.idleJ[kind] += profiles[kind].IdleWatts * seconds
	}
}

// TotalJoules returns all energy across kinds and states. The arrays are
// summed in kind order: float addition is not associative, so a fixed
// order keeps the total bit-for-bit reproducible.
func (m *Meter) TotalJoules() float64 {
	var total float64
	for _, j := range m.activeJ {
		total += j
	}
	for _, j := range m.idleJ {
		total += j
	}
	return total
}

// String summarizes the meter.
func (m *Meter) String() string {
	return fmt.Sprintf("energy: %.1f kJ total", m.TotalJoules()/1e3)
}
