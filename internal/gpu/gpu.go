// Package gpu models GPU processing elements per Table I of the paper. The
// paper's taxonomy (Fig. 1) includes GPUs among enhanced processing
// elements; the framework is "extendable to add more types of processing
// elements", and this package is that extension exercised.
package gpu

import (
	"fmt"

	"repro/internal/capability"
	"repro/internal/pe"
)

// Device is a concrete GPU instance.
type Device struct {
	Caps capability.GPUCaps
	// CoreClockMHz drives the throughput model.
	CoreClockMHz float64
}

// New validates the capabilities and returns a device model.
func New(caps capability.GPUCaps, coreClockMHz float64) (*Device, error) {
	if err := caps.Validate(); err != nil {
		return nil, err
	}
	if coreClockMHz <= 0 {
		return nil, fmt.Errorf("gpu: non-positive core clock %g", coreClockMHz)
	}
	return &Device{Caps: caps, CoreClockMHz: coreClockMHz}, nil
}

// Kind implements pe.Estimator.
func (d *Device) Kind() capability.Kind { return capability.KindGPU }

// EstimateSeconds implements pe.Estimator. GPUs only help on the parallel
// fraction; the serial remainder runs at a fraction of one shader core's
// scalar speed, which is what makes low-parallelism tasks a poor match.
func (d *Device) EstimateSeconds(w pe.Work) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	// One shader core retires roughly one instruction per clock.
	scalarMIPS := d.CoreClockMHz
	parallelMIPS := scalarMIPS * float64(d.Caps.ShaderCores) * warpEfficiency(d.Caps.WarpSize)
	serial := w.MInstructions * (1 - w.ParallelFraction) / scalarMIPS
	parallel := w.MInstructions * w.ParallelFraction / parallelMIPS
	return serial + parallel, nil
}

// warpEfficiency models divergence losses: wider warps waste more lanes on
// branchy code. 32-wide warps land at ≈70 % efficiency.
func warpEfficiency(warp int) float64 {
	if warp <= 1 {
		return 1
	}
	eff := 1 - float64(warp)/128.0
	if eff < 0.25 {
		eff = 0.25
	}
	return eff
}

// String summarizes the device.
func (d *Device) String() string {
	return fmt.Sprintf("gpu %s @%g MHz", d.Caps.Model, d.CoreClockMHz)
}
