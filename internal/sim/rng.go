package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (PCG-XSH-RR 64/32). It is not cryptographically secure; it exists so
// simulations are reproducible across platforms without depending on the
// global math/rand state.
type RNG struct {
	state uint64
	inc   uint64
	// seed is the construction seed, kept so SplitSeed stays a pure
	// function of (seed, stream) no matter how many draws were consumed.
	seed uint64
}

const pcgMult = 6364136223846793005

// NewRNG returns a generator seeded deterministically from seed. Two RNGs
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1, seed: seed}
	r.state = splitmix64(seed)
	r.Uint32() // advance away from the low-entropy initial state
	return r
}

// Split returns a new generator whose stream is independent of r's, derived
// deterministically from r's seed material and the given stream label. It is
// the way to give each model component its own stream.
func (r *RNG) Split(stream uint64) *RNG {
	return NewRNG(r.SplitSeed(stream))
}

// SplitSeed returns the seed Split(stream) would use, without constructing
// the generator. It is a pure function of r's construction seed and the
// stream label — draws consumed from r never change it — so the sweep
// engine can give replica i the seed SplitSeed(i) no matter which worker
// runs it, or in what order.
func (r *RNG) SplitSeed(stream uint64) uint64 {
	return splitmix64(splitmix64(r.seed) ^ splitmix64(stream+0x9e3779b97f4a7c15))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method on 32-bit draws covers all
	// realistic model sizes; fall back to modulo for huge n.
	if n <= math.MaxInt32 {
		bound := uint32(n)
		for {
			v := r.Uint32()
			m := uint64(v) * uint64(bound)
			lo := uint32(m)
			if lo >= bound || lo >= -bound%bound {
				return int(m >> 32)
			}
		}
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential deviate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
