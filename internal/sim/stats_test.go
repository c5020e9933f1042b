package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		c.Observe(x)
	}
	if c.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", c.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(c.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", c.Variance(), 32.0/7)
	}
	if got, want := c.String(), "n=8 mean=5 sd=2.138 min=2 max=9"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestCounterEmptyAndSingle(t *testing.T) {
	var c Counter
	if c.Mean() != 0 || c.Variance() != 0 || c.StdDev() != 0 {
		t.Error("empty counter should report zeros")
	}
	c.Observe(3)
	if c.Variance() != 0 {
		t.Error("single observation variance should be 0")
	}
	if got, want := c.String(), "n=1 mean=3 sd=0 min=3 max=3"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestCounterMatchesNaiveMoments(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var c Counter
		var xs []float64
		n := 2 + r.Intn(100)
		for i := 0; i < n; i++ {
			x := r.Float64()*100 - 50
			xs = append(xs, x)
			c.Observe(x)
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(c.Mean()-mean) < 1e-9 && math.Abs(c.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesQuantiles(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if s.N() != 100 {
		t.Errorf("N = %d", s.N())
	}
	if m := s.Quantile(0.5); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("Median = %v, want 50.5", m)
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("Q0 = %v", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("Q1 = %v", q)
	}
	if q := s.Quantile(0.99); math.Abs(q-99.01) > 1e-9 {
		t.Errorf("Q99 = %v, want 99.01", q)
	}
	if m := s.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
}

// TestSeriesMeanIgnoresQuantile: Quantile sorts the observations in
// place, and the mean must not move by a single bit when it does.
func TestSeriesMeanIgnoresQuantile(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRNG(seed)
		var s Series
		for i := 0; i < 1000; i++ {
			s.Observe(r.ExpFloat64() * 100)
		}
		before := s.Mean()
		s.Quantile(0.95)
		if after := s.Mean(); math.Float64bits(after) != math.Float64bits(before) {
			t.Errorf("seed %d: mean %v after Quantile, %v before", seed, after, before)
		}
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestSeriesQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var s Series
		for i := 0; i < 50; i++ {
			s.Observe(r.Float64() * 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedIntegration(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)  // value 1 over [0,10)
	w.Set(10, 3) // value 3 over [10,20)
	if got := w.MeanOver(20); math.Abs(got-2) > 1e-12 {
		t.Errorf("MeanOver(20) = %v, want 2", got)
	}
	if w.value != 3 {
		t.Errorf("value = %v", w.value)
	}
	if w.Max() != 3 {
		t.Errorf("Max = %v", w.Max())
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var w TimeWeighted
	w.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	w.Set(4, 2)
}

func TestTimeWeightedEmptyMean(t *testing.T) {
	var w TimeWeighted
	if w.MeanOver(10) != 0 {
		t.Error("mean of unset TimeWeighted should be 0")
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.CI95 != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{7}); s.N != 1 || s.Mean != 7 || s.CI95 != 0 {
		t.Errorf("singleton summary = %+v", s)
	}
	// 1..5: mean 3, sd sqrt(2.5), CI95 = t(4)*sd/sqrt(5) = 2.776*1.5811/2.2361.
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || math.Abs(s.Mean-3) > 1e-12 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("sd = %v", s.StdDev)
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Errorf("ci95 = %v, want %v", s.CI95, want)
	}
	if s.String() == "" {
		t.Error("summary must render")
	}
	// Beyond the t-table the normal critical value takes over.
	big := make([]float64, 40)
	for i := range big {
		big[i] = float64(i)
	}
	if s := Summarize(big); s.CI95 <= 0 {
		t.Errorf("large-n ci95 = %v", s.CI95)
	}
}

func TestSplitSeedOrderIndependent(t *testing.T) {
	// SplitSeed must be a pure function of (base seed, stream): calling it
	// in any order, or after consuming draws, yields the same seeds.
	a := NewRNG(42)
	b := NewRNG(42)
	_ = b.Float64() // consuming draws must not change split seeds
	s0, s1 := a.SplitSeed(0), a.SplitSeed(1)
	if b.SplitSeed(1) != s1 || b.SplitSeed(0) != s0 {
		t.Error("SplitSeed depends on call order or RNG consumption")
	}
	if s0 == s1 {
		t.Error("distinct streams collided")
	}
	if NewRNG(43).SplitSeed(0) == s0 {
		t.Error("different base seeds produced the same split seed")
	}
}
