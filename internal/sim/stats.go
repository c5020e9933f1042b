package sim

import (
	"fmt"
	"math"
	"sort"
)

// Counter accumulates scalar observations with Welford's online algorithm,
// so means and variances stay numerically stable over long runs.
type Counter struct {
	n        uint64
	mean     float64
	m2       float64
	min, max float64
}

// Observe records one value.
func (c *Counter) Observe(x float64) {
	c.n++
	if c.n == 1 {
		c.min, c.max = x, x
	} else {
		if x < c.min {
			c.min = x
		}
		if x > c.max {
			c.max = x
		}
	}
	delta := x - c.mean
	c.mean += delta / float64(c.n)
	c.m2 += delta * (x - c.mean)
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (c *Counter) Mean() float64 { return c.mean }

// Variance returns the sample variance (n-1 denominator).
func (c *Counter) Variance() float64 {
	if c.n < 2 {
		return 0
	}
	return c.m2 / float64(c.n-1)
}

// StdDev returns the sample standard deviation.
func (c *Counter) StdDev() float64 { return math.Sqrt(c.Variance()) }

// String summarizes the counter.
func (c *Counter) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", c.n, c.Mean(), c.StdDev(), c.min, c.max)
}

// Series keeps all observations so exact quantiles can be computed; use it
// for experiment outputs, not for unbounded streams.
type Series struct {
	xs     []float64
	sorted bool
	// sum adds the observations in insertion order, so Mean does not
	// depend on whether a Quantile call has sorted xs.
	sum float64
}

// Observe appends one value.
func (s *Series) Observe(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// N returns the number of observations.
func (s *Series) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Series) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks. It returns 0 with no observations.
func (s *Series) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Summary condenses replicated observations — one value per independent
// replication — into the experiment-report form: mean, sample standard
// deviation, and the half-width of the 95% confidence interval of the mean
// (Student's t for small samples, the normal critical value beyond 30
// degrees of freedom).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	// CI95 is the half-width of the 95% confidence interval of the mean:
	// the interval is Mean ± CI95. Zero when N < 2.
	CI95 float64
}

// String renders the summary as "mean ± ci95 (sd=…, n=…)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.3g (sd=%.3g, n=%d)", s.Mean, s.CI95, s.StdDev, s.N)
}

// tCritical95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom (index 0 unused).
var tCritical95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// Summarize computes the Summary of one value per replication.
func Summarize(xs []float64) Summary {
	var c Counter
	for _, x := range xs {
		c.Observe(x)
	}
	out := Summary{N: len(xs), Mean: c.Mean(), StdDev: c.StdDev()}
	if out.N >= 2 {
		df := out.N - 1
		t := 1.960
		if df < len(tCritical95) {
			t = tCritical95[df]
		}
		out.CI95 = t * out.StdDev / math.Sqrt(float64(out.N))
	}
	return out
}

// TimeWeighted tracks a piecewise-constant quantity (queue length,
// utilization) and integrates it over virtual time.
type TimeWeighted struct {
	last     Time
	value    float64
	integral float64
	started  bool
	max      float64
}

// Set records that the quantity changed to v at time t. Times must be
// non-decreasing.
func (w *TimeWeighted) Set(t Time, v float64) {
	if w.started {
		if t < w.last {
			panic(fmt.Sprintf("sim: TimeWeighted time went backwards: %v < %v", t, w.last))
		}
		w.integral += w.value * float64(t-w.last)
	} else {
		w.started = true
		w.max = v
	}
	if v > w.max {
		w.max = v
	}
	w.last = t
	w.value = v
}

// Max returns the largest value seen.
func (w *TimeWeighted) Max() float64 { return w.max }

// MeanOver returns the time-average of the quantity from the first Set
// through time t.
func (w *TimeWeighted) MeanOver(t Time) float64 {
	if !w.started || t <= 0 {
		return 0
	}
	integral := w.integral + w.value*float64(t-w.last)
	return integral / float64(t)
}
