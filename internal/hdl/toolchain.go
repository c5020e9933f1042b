package hdl

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/quipu"
)

// Toolchain is the synthesis CAD tool a service provider possesses in the
// user-defined-hardware scenario. It maps generic HDL designs to
// device-specific bitstreams for the families it supports.
type Toolchain struct {
	Vendor   string
	families map[string]bool
	model    *quipu.Model
	// synth memoizes Synthesize: a synthesis is a pure function of the
	// design, the device and the kind, so each is built once and shared
	// by every matchmaker on the toolchain. Each matchmaker still
	// charges CAD time for the results it commits (rms.Matchmaker's
	// synthCache). Keyed by the *Design, so two designs that share a
	// name never share a result, it holds one entry per design, device
	// and kind ever synthesized.
	synthMu sync.Mutex
	synth   map[synthKey]*SynthesisResult // guarded by synthMu
}

// synthKey identifies one synthesis: a design for a device, partial or
// full.
type synthKey struct {
	design  *Design
	device  fabric.Device
	partial bool
}

// NewToolchain creates a toolchain for the given device families using the
// default Quipu area model.
func NewToolchain(vendor string, families ...string) (*Toolchain, error) {
	if vendor == "" {
		return nil, fmt.Errorf("hdl: toolchain needs a vendor name")
	}
	if len(families) == 0 {
		return nil, fmt.Errorf("hdl: toolchain %s supports no device families", vendor)
	}
	fs := make(map[string]bool, len(families))
	for _, f := range families {
		fs[strings.ToLower(f)] = true
	}
	return &Toolchain{Vendor: vendor, families: fs, model: quipu.Default()}, nil
}

// defaultToolchain builds the shared provider toolchain once.
var defaultToolchain = sync.OnceValues(func() (*Toolchain, error) {
	return NewToolchain("Xilinx ISE 13", "Virtex-4", "Virtex-5", "Virtex-6")
})

// DefaultToolchain returns the provider toolchain of scenario runs, the
// case study and every control-plane tenant: Xilinx ISE 13 for the
// Virtex-4/5/6 families with the default Quipu model. It is built once
// and shared by every caller, so it must be treated as read-only.
func DefaultToolchain() (*Toolchain, error) { return defaultToolchain() }

// Supports reports whether the toolchain can target a device family.
// Matched case-insensitively without lowering the query: this runs per
// estimate on the dispatch path.
func (tc *Toolchain) Supports(family string) bool {
	if tc.families[family] {
		return true
	}
	for f := range tc.families {
		if strings.EqualFold(f, family) {
			return true
		}
	}
	return false
}

// SynthesisResult is the output of one synthesis run.
type SynthesisResult struct {
	Design string
	Device string
	// Area is the Quipu resource prediction that placement confirmed.
	Area quipu.Prediction
	// Bitstream is the device-specific configuration image.
	Bitstream *fabric.Bitstream
	// ClockMHz is the achieved post-route clock.
	ClockMHz float64
	// ToolSeconds is the CAD runtime consumed (synthesis is minutes, not
	// milliseconds — a real cost in the user-defined scenario).
	ToolSeconds float64

	// accel memoizes the Estimator wrapper handed to the scheduler:
	// candidate probing asks for it once per candidate per dispatch
	// round, always for the design this result was synthesized from.
	// Atomic because the toolchain shares each result with every
	// matchmaker, on every shard and sweep worker.
	accel atomic.Pointer[Accelerator]
}

// EstimateArea runs only the area-prediction stage, which the RMS uses to
// pick a device before committing to full synthesis.
func (tc *Toolchain) EstimateArea(d *Design) (quipu.Prediction, error) {
	if err := d.Validate(); err != nil {
		return quipu.Prediction{}, err
	}
	return tc.model.Predict(d.Metrics)
}

// Synthesize compiles a design for a concrete device and emits a bitstream.
// Set partial to produce a region-level (partial reconfiguration)
// bitstream. Synthesis fails when the toolchain does not support the
// family, the design does not fit, or the design is a streaming design
// (unsupported by the framework, per the paper's future work). The
// result is built once per design, device and kind, and shared: callers
// must not mutate it, nor the design once it has been synthesized.
func (tc *Toolchain) Synthesize(d *Design, dev fabric.Device, partial bool) (*SynthesisResult, error) {
	k := synthKey{d, dev, partial}
	tc.synthMu.Lock()
	defer tc.synthMu.Unlock()
	if res := tc.synth[k]; res != nil {
		return res, nil
	}
	res, err := tc.synthesize(d, dev, partial)
	if err != nil {
		return nil, err
	}
	if tc.synth == nil {
		tc.synth = make(map[synthKey]*SynthesisResult)
	}
	tc.synth[k] = res
	return res, nil
}

// synthesize builds one synthesis result.
func (tc *Toolchain) synthesize(d *Design, dev fabric.Device, partial bool) (*SynthesisResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Streaming {
		return nil, fmt.Errorf("hdl: %s is a streaming design; streaming applications are not supported", d.Name)
	}
	if !tc.Supports(dev.Family) {
		return nil, fmt.Errorf("hdl: toolchain %s does not support family %s", tc.Vendor, dev.Family)
	}
	area, err := tc.model.Predict(d.Metrics)
	if err != nil {
		return nil, err
	}
	if area.Slices > dev.Slices {
		return nil, fmt.Errorf("hdl: %s needs %d slices, %s has %d", d.Name, area.Slices, dev.FPGACaps.Device, dev.Slices)
	}
	if area.BRAMKb > dev.BRAMKb {
		return nil, fmt.Errorf("hdl: %s needs %d Kb BRAM, %s has %d", d.Name, area.BRAMKb, dev.FPGACaps.Device, dev.BRAMKb)
	}
	if area.DSPSlices > dev.DSPSlices {
		return nil, fmt.Errorf("hdl: %s needs %d DSP slices, %s has %d", d.Name, area.DSPSlices, dev.FPGACaps.Device, dev.DSPSlices)
	}
	// Achieved clock: devices faster than the reference improve it, and
	// denser placements lose timing margin.
	utilization := float64(area.Slices) / float64(dev.Slices)
	clock := d.ReferenceClockMHz * (float64(dev.SpeedGradeMHz) / 550) * (1 - 0.3*utilization)

	id := BitstreamID(d.Name, dev.FPGACaps.Device, partial)
	var bs *fabric.Bitstream
	if partial {
		bs = fabric.PartialBitstream(id, d.Name, dev, area.Slices)
	} else {
		bs = fabric.FullBitstream(id, d.Name, dev, area.Slices)
	}
	bs.BRAMKb = area.BRAMKb
	bs.DSPSlices = area.DSPSlices
	bs.ClockMHz = clock

	// Tool runtime model: placement and routing dominate, superlinear in
	// placed area.
	toolSeconds := 30 + 0.05*float64(area.Slices) + 0.0002*float64(area.Slices)*utilization*float64(area.Slices)/1000

	return &SynthesisResult{
		Design:      d.Name,
		Device:      dev.FPGACaps.Device,
		Area:        area,
		Bitstream:   bs,
		ClockMHz:    clock,
		ToolSeconds: toolSeconds,
	}, nil
}

// BitstreamID is the deterministic identifier for a design/device/kind
// combination, letting nodes recognize already-loaded configurations.
func BitstreamID(design, device string, partial bool) string {
	kind := "#full"
	if partial {
		kind = "#part"
	}
	var b strings.Builder
	b.Grow(len(design) + 1 + len(device) + len(kind))
	b.WriteString(strings.ToLower(design))
	b.WriteByte('@')
	b.WriteString(strings.ToUpper(device))
	b.WriteString(kind)
	return b.String()
}

// Accelerate wraps a synthesis result as a pe.Estimator for the scheduler.
// The wrapper is immutable and memoized per design, so the hot candidate
// paths get the same value back instead of a fresh allocation.
func (r *SynthesisResult) Accelerate(d *Design) *Accelerator {
	if a := r.accel.Load(); a != nil && a.Design == d {
		return a
	}
	a := &Accelerator{Design: d, ClockMHz: r.ClockMHz}
	r.accel.Store(a)
	return a
}
