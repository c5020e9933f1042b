package quipu

import (
	"math"
	"strings"
	"testing"
)

func TestPaperAnchorPredictions(t *testing.T) {
	// Section V: "we estimated that pairalign requires 30,790 slices,
	// whereas malign requires 18707 slices on Virtex 5 devices."
	m := Default()
	pa, err := m.Predict(PairalignMetrics())
	if err != nil {
		t.Fatal(err)
	}
	ma, err := m.Predict(MalignMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if abs(pa.Slices-30790) > 30 {
		t.Errorf("pairalign slices = %d, want ≈30,790", pa.Slices)
	}
	if abs(ma.Slices-18707) > 30 {
		t.Errorf("malign slices = %d, want ≈18,707", ma.Slices)
	}
	if pa.LUTs <= pa.Slices {
		t.Error("LUTs should exceed slices")
	}
	if pa.BRAMKb <= 0 || pa.DSPSlices <= 0 || pa.MemoryUnits <= 0 {
		t.Errorf("secondary resources missing: %+v", pa)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestMetricsValidate(t *testing.T) {
	good := PairalignMetrics()
	if err := good.Validate(); err != nil {
		t.Errorf("anchor metrics invalid: %v", err)
	}
	bad := []Metrics{
		{},
		{Name: "k"},
		{Name: "k", LinesOfCode: 10},
		{Name: "k", LinesOfCode: 10, UniqueOperators: 5, UniqueOperands: 5, TotalOperators: 2, TotalOperands: 9, Cyclomatic: 1},
		{Name: "k", LinesOfCode: 10, UniqueOperators: 5, UniqueOperands: 5, TotalOperators: 9, TotalOperands: 9, Cyclomatic: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad metrics %d accepted", i)
		}
	}
}

func TestHalsteadVolume(t *testing.T) {
	m := Metrics{
		Name: "k", LinesOfCode: 10,
		UniqueOperators: 2, UniqueOperands: 2, TotalOperators: 8, TotalOperands: 8,
		Cyclomatic: 1,
	}
	// N=16, n=4 → V = 16·log2(4) = 32.
	if v := m.HalsteadVolume(); math.Abs(v-32) > 1e-12 {
		t.Errorf("V = %v, want 32", v)
	}
}

func TestPredictRejectsInvalid(t *testing.T) {
	m := Default()
	if _, err := m.Predict(Metrics{}); err == nil {
		t.Error("invalid metrics accepted")
	}
	badModel := &Model{SliceCoef: []float64{1}}
	if _, err := badModel.Predict(PairalignMetrics()); err == nil {
		t.Error("short coefficient vector accepted")
	}
}

func TestPredictClampsNegative(t *testing.T) {
	m := &Model{SliceCoef: []float64{-1e9, 0, 0, 0, 0, 0}, LUTsPerSlice: 3}
	p, err := m.Predict(PairalignMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if p.Slices != 0 || p.LUTs != 0 {
		t.Errorf("negative prediction not clamped: %+v", p)
	}
}

func TestLargerKernelPredictsMoreArea(t *testing.T) {
	m := Default()
	pa, _ := m.Predict(PairalignMetrics())
	ma, _ := m.Predict(MalignMetrics())
	if pa.Slices <= ma.Slices {
		t.Error("pairalign should predict more slices than malign")
	}
}

func TestPredictionString(t *testing.T) {
	p := Prediction{Slices: 10, LUTs: 36, BRAMKb: 4, DSPSlices: 2, MemoryUnits: 1}
	if !strings.Contains(p.String(), "10 slices") {
		t.Errorf("String = %q", p.String())
	}
}
