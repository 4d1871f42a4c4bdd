package simtime

import "math"

// Rand is a small deterministic pseudo-random source (SplitMix64) used for
// modeled measurement noise (e.g. the box-plot variance of Xen's sequential
// migration receive path). It is used instead of math/rand so that every
// experiment is reproducible from a single uint64 seed regardless of the Go
// release.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Mix is the repo's one seed mixer: one SplitMix64 step from state x,
// i.e. the finalizer applied to x plus the golden-ratio increment. Fault
// plans, head sampling and probe phases derive their draws from it, so
// its values are pinned (TestMixStable) and must never change.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	z := Mix(r.state)
	r.state += 0x9e3779b97f4a7c15
	return z
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a sample from a normal distribution with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := 1.0 - r.Float64() // (0, 1]
	u2 := r.Float64()
	z := math.Sqrt(-2.0*math.Log(u1)) * math.Cos(2.0*math.Pi*u2)
	return mean + stddev*z
}

// Jitter returns x scaled by a factor uniform in [1-frac, 1+frac].
func (r *Rand) Jitter(x float64, frac float64) float64 {
	return x * (1 + frac*(2*r.Float64()-1))
}
