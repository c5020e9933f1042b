package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleMean(d Distribution, seed uint64, n int) float64 {
	r := NewRNG(seed)
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestConstant(t *testing.T) {
	d := Constant{Value: 4.2}
	if d.Sample(NewRNG(1)) != 4.2 {
		t.Error("Constant broken")
	}
}

func TestUniformMeanAndSupport(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 6}
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v out of [2,6)", v)
		}
	}
	if m := sampleMean(d, 2, 100000); math.Abs(m-4) > 0.05 {
		t.Errorf("uniform sample mean %v, want ≈4", m)
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{Rate: 0.5}
	if m := sampleMean(d, 3, 200000); math.Abs(m-2) > 0.05 {
		t.Errorf("sample mean %v, want ≈2", m)
	}
}

func TestLogNormalMean(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 0.25}
	want := math.Exp(0.25 * 0.25 / 2)
	if m := sampleMean(d, 5, 200000); math.Abs(m-want) > 0.02 {
		t.Errorf("sample mean %v, want ≈%v", m, want)
	}
}

func TestParetoMean(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 3}
	if m := sampleMean(d, 7, 200000); math.Abs(m-1.5) > 0.02 {
		t.Errorf("sample mean %v, want ≈1.5", m)
	}
	r := NewRNG(6)
	for i := 0; i < 1000; i++ {
		if d.Sample(r) < 1 {
			t.Fatal("pareto sample below xm")
		}
	}
}

func TestDistributionsNonNegative(t *testing.T) {
	dists := []Distribution{
		Constant{1}, Uniform{0, 5}, Exponential{Rate: 2},
		LogNormal{Mu: 0, Sigma: 1}, Pareto{Xm: 0.5, Alpha: 2},
	}
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for _, d := range dists {
			for i := 0; i < 10; i++ {
				if d.Sample(r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributionStrings(t *testing.T) {
	dists := []Distribution{
		Constant{1}, Uniform{0, 5}, Exponential{Rate: 2},
		LogNormal{Mu: 0, Sigma: 1}, Pareto{Xm: 0.5, Alpha: 2},
	}
	for _, d := range dists {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}
