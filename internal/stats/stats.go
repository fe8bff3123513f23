// Package stats provides the numerical support the evaluation needs:
// a deterministic, seedable RNG (xoshiro256** seeded via SplitMix64),
// exponential variates for Poisson fault arrivals, and binomial
// confidence intervals for fault-injection campaign results (the paper
// reports 0.1%-0.2% error bars at the 95% confidence level).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// RNG is a xoshiro256** generator. It is deterministic for a given seed
// across platforms and Go versions, which keeps campaigns and simulations
// reproducible.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64 (the
// recommended seeding procedure for xoshiro).
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state (probability ~0, but cheap to guard).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n) without modulo bias
// (Lemire's method).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n(0)")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponential variate with the given mean (the inter-arrival
// time of a Poisson process with rate 1/mean).
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) * mean
}

// Weibull returns a Weibull variate with the given shape k and the given
// mean: X = scale * (-ln U)^(1/k) with scale = mean / Gamma(1 + 1/k).
// Shape 1 reduces to the exponential distribution; shapes below 1 model
// the heavy-tailed failure gaps observed on production HPC systems.
func (r *RNG) Weibull(shape, mean float64) float64 {
	if shape <= 0 || mean <= 0 {
		panic("stats: Weibull with non-positive shape or mean")
	}
	scale := mean / math.Gamma(1+1/shape)
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Split derives an independent generator; workers in a parallel campaign
// each get their own stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Proportion is a binomial proportion estimate with its confidence
// interval half-width.
type Proportion struct {
	P         float64 // point estimate
	HalfCI    float64 // half-width at the requested confidence
	N         int     // sample size
	Successes int
}

func (p Proportion) String() string {
	return fmt.Sprintf("%.4f±%.4f (n=%d)", p.P, p.HalfCI, p.N)
}

// z95 is the standard normal quantile for a two-sided 95% interval.
const z95 = 1.959963984540054

// BinomialCI95 returns the normal-approximation 95% confidence interval
// for a proportion of successes among n trials — the error-bar formula
// behind the paper's "0.1% to 0.2% at the 95% confidence interval".
func BinomialCI95(successes, n int) Proportion {
	if n <= 0 {
		return Proportion{}
	}
	p := float64(successes) / float64(n)
	half := z95 * math.Sqrt(p*(1-p)/float64(n))
	return Proportion{P: p, HalfCI: half, N: n, Successes: successes}
}

// Quantile returns the q-quantile of xs (0 for empty input) by the
// nearest-rank method on a sorted copy: element floor(q*n), clamped to
// the last element. q is clamped to [0, 1]. q=0.5 is the upper median,
// matching the campaign's median-crash-latency convention.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// QuantileUint64 is Quantile over uint64 samples (instruction counts,
// latencies) without a lossy float conversion.
func QuantileUint64(xs []uint64, q float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rankIndex(len(s), q)]
}

// MedianUint64 returns the upper median of xs.
func MedianUint64(xs []uint64) uint64 { return QuantileUint64(xs, 0.5) }

// rankIndex maps a quantile to a nearest-rank index in [0, n).
func rankIndex(n int, q float64) int {
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
