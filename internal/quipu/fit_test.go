package quipu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// Sample pairs kernel metrics with the slice count a real synthesis run
// produced, for model calibration.
type Sample struct {
	Metrics Metrics
	Slices  float64
}

// Fit calibrates slice-count coefficients by ordinary least squares over
// the samples (normal equations with Gaussian elimination and partial
// pivoting). It needs at least FeatureCount samples; with fewer, or with a
// singular design matrix, it returns an error.
func Fit(samples []Sample) ([]float64, error) {
	if len(samples) < FeatureCount {
		return nil, fmt.Errorf("quipu: need ≥%d samples to fit, got %d", FeatureCount, len(samples))
	}
	// Build XᵀX and Xᵀy.
	var xtx [FeatureCount][FeatureCount]float64
	var xty [FeatureCount]float64
	for _, s := range samples {
		if err := s.Metrics.Validate(); err != nil {
			return nil, err
		}
		f := features(s.Metrics)
		for i := 0; i < FeatureCount; i++ {
			for j := 0; j < FeatureCount; j++ {
				xtx[i][j] += f[i] * f[j]
			}
			xty[i] += f[i] * s.Slices
		}
	}
	// Gaussian elimination with partial pivoting. Singularity is judged
	// against the matrix's own scale so rank deficiency is detected even
	// when entries are large.
	scale := 0.0
	for i := 0; i < FeatureCount; i++ {
		for j := 0; j < FeatureCount; j++ {
			if v := math.Abs(xtx[i][j]); v > scale {
				scale = v
			}
		}
	}
	var a [FeatureCount][FeatureCount + 1]float64
	for i := 0; i < FeatureCount; i++ {
		copy(a[i][:FeatureCount], xtx[i][:])
		a[i][FeatureCount] = xty[i]
	}
	for col := 0; col < FeatureCount; col++ {
		pivot := col
		for r := col + 1; r < FeatureCount; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-10*scale {
			return nil, fmt.Errorf("quipu: singular design matrix at feature %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := 0; r < FeatureCount; r++ {
			if r == col {
				continue
			}
			factor := a[r][col] / a[col][col]
			for c := col; c <= FeatureCount; c++ {
				a[r][c] -= factor * a[col][c]
			}
		}
	}
	coef := make([]float64, FeatureCount)
	for i := 0; i < FeatureCount; i++ {
		coef[i] = a[i][FeatureCount] / a[i][i]
	}
	return coef, nil
}

// RMSE returns the root-mean-square slice error of coefficients over
// samples, the calibration quality measure.
func RMSE(coef []float64, samples []Sample) (float64, error) {
	if len(coef) != FeatureCount {
		return 0, fmt.Errorf("quipu: %d coefficients, want %d", len(coef), FeatureCount)
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("quipu: no samples")
	}
	var se float64
	for _, s := range samples {
		f := features(s.Metrics)
		var pred float64
		for i, c := range coef {
			pred += c * f[i]
		}
		se += (pred - s.Slices) * (pred - s.Slices)
	}
	return math.Sqrt(se / float64(len(samples))), nil
}

// syntheticMetrics builds a valid random metrics struct.
func syntheticMetrics(r *sim.RNG, i int) Metrics {
	n1 := 5 + r.Intn(40)
	n2 := 10 + r.Intn(100)
	return Metrics{
		Name:            "kern",
		LinesOfCode:     20 + r.Intn(400),
		UniqueOperators: n1,
		UniqueOperands:  n2,
		TotalOperators:  n1 + r.Intn(1000),
		TotalOperands:   n2 + r.Intn(1200),
		Cyclomatic:      1 + r.Intn(60),
		Branches:        r.Intn(100),
		ArrayAccesses:   r.Intn(200),
		FloatOps:        r.Intn(50),
		LoopNestDepth:   1 + r.Intn(4),
	}
}

func TestFitRecoversKnownModel(t *testing.T) {
	truth := []float64{300, 1.5, 120, 8, 20, 5}
	r := sim.NewRNG(12345)
	var samples []Sample
	for i := 0; i < 60; i++ {
		m := syntheticMetrics(r, i)
		f := features(m)
		var y float64
		for j, c := range truth {
			y += c * f[j]
		}
		samples = append(samples, Sample{Metrics: m, Slices: y})
	}
	coef, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range coef {
		if math.Abs(c-truth[i]) > 1e-3*(math.Abs(truth[i])+1) {
			t.Errorf("coef[%d] = %v, want %v", i, c, truth[i])
		}
	}
	rmse, err := RMSE(coef, samples)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1 {
		t.Errorf("RMSE = %v on noiseless data", rmse)
	}
}

func TestFitWithNoiseStaysClose(t *testing.T) {
	truth := []float64{500, 1.3, 170, 0, 0, 0}
	r := sim.NewRNG(777)
	var samples []Sample
	for i := 0; i < 200; i++ {
		m := syntheticMetrics(r, i)
		f := features(m)
		var y float64
		for j, c := range truth {
			y += c * f[j]
		}
		y += r.NormFloat64() * 50 // synthesis noise
		samples = append(samples, Sample{Metrics: m, Slices: y})
	}
	coef, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Volume coefficient is the load-bearing one; it must survive noise.
	if math.Abs(coef[1]-1.3) > 0.1 {
		t.Errorf("volume coefficient = %v, want ≈1.3", coef[1])
	}
	rmse, _ := RMSE(coef, samples)
	if rmse > 100 {
		t.Errorf("RMSE = %v with σ=50 noise", rmse)
	}
}

func TestFitNeedsEnoughSamples(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
	r := sim.NewRNG(1)
	var few []Sample
	for i := 0; i < FeatureCount-1; i++ {
		few = append(few, Sample{Metrics: syntheticMetrics(r, i), Slices: 100})
	}
	if _, err := Fit(few); err == nil {
		t.Error("underdetermined fit accepted")
	}
}

func TestFitRejectsInvalidMetrics(t *testing.T) {
	r := sim.NewRNG(2)
	samples := make([]Sample, FeatureCount)
	for i := range samples {
		samples[i] = Sample{Metrics: syntheticMetrics(r, i), Slices: 1}
	}
	samples[0].Metrics = Metrics{} // invalid
	if _, err := Fit(samples); err == nil {
		t.Error("invalid sample accepted")
	}
}

func TestFitSingularMatrix(t *testing.T) {
	// Identical samples make the design matrix rank-1.
	m := PairalignMetrics()
	samples := make([]Sample, FeatureCount+2)
	for i := range samples {
		samples[i] = Sample{Metrics: m, Slices: 100}
	}
	if _, err := Fit(samples); err == nil {
		t.Error("singular fit should error")
	}
}

func TestRMSEValidation(t *testing.T) {
	if _, err := RMSE([]float64{1}, []Sample{{Metrics: PairalignMetrics(), Slices: 1}}); err == nil {
		t.Error("short coefficients accepted")
	}
	coef := make([]float64, FeatureCount)
	if _, err := RMSE(coef, nil); err == nil {
		t.Error("empty samples accepted")
	}
}
