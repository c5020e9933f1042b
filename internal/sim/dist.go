package sim

import (
	"fmt"
	"math"
)

// Distribution draws positive-valued samples, typically inter-arrival or
// service times, from a seeded RNG.
type Distribution interface {
	// Sample draws one value using r.
	Sample(r *RNG) float64
	// String describes the distribution and its parameters.
	String() string
}

// Constant always returns the same value.
type Constant struct{ Value float64 }

// Sample implements Distribution.
func (c Constant) Sample(*RNG) float64 { return c.Value }

func (c Constant) String() string { return fmt.Sprintf("Constant(%g)", c.Value) }

// Uniform draws uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Distribution.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

func (u Uniform) String() string { return fmt.Sprintf("Uniform[%g,%g)", u.Lo, u.Hi) }

// Exponential draws from an exponential distribution with the given Rate
// (events per unit time). Its mean is 1/Rate. A Poisson arrival process uses
// Exponential inter-arrival times.
type Exponential struct{ Rate float64 }

// Sample implements Distribution.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }

func (e Exponential) String() string { return fmt.Sprintf("Exponential(rate=%g)", e.Rate) }

// LogNormal draws from a log-normal distribution parameterized by the
// underlying normal's Mu and Sigma.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Distribution.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

func (l LogNormal) String() string { return fmt.Sprintf("LogNormal(µ=%g,σ=%g)", l.Mu, l.Sigma) }

// Pareto draws from a Pareto (heavy-tailed) distribution with scale Xm and
// shape Alpha. Heavy-tailed service times model the occasional huge grid job.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Distribution.
func (p Pareto) Sample(r *RNG) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return p.Xm / math.Pow(u, 1/p.Alpha)
		}
	}
}

func (p Pareto) String() string { return fmt.Sprintf("Pareto(xm=%g,α=%g)", p.Xm, p.Alpha) }
