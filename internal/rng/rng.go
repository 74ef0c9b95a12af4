// Package rng provides small, fast, deterministic pseudo-random number
// generators and the discrete distributions the workload generators are
// built on. Everything here is reproducible from a single uint64 seed so
// that simulations (and therefore experiments) are bit-for-bit repeatable
// across runs and machines, which math/rand does not guarantee across Go
// releases.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the seeding generator recommended by Vigna for
// initialising other generators. It is also a perfectly good generator in
// its own right for simulation workloads: 2^64 period, passes BigCrush.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is the minimal interface the distributions need.
type Source interface {
	Uint64() uint64
}

// Rand is a xoshiro256** generator with convenience methods. The zero
// value is not usable; construct with New. The state words are separate
// fields (not an array) and the rotates use the math/bits intrinsics to
// keep Uint64 under the compiler's inlining budget: every hot-loop draw
// (Float64, BoolThr, Intn, the CDF samplers) then inlines the whole
// generator step instead of paying a call per random number.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a Rand seeded deterministically from seed via SplitMix64.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{s0: sm.Uint64(), s1: sm.Uint64(), s2: sm.Uint64(), s3: sm.Uint64()}
	// xoshiro must not be seeded to the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). Panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	return r.Uint64() % n
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BoolThreshold precomputes the integer threshold T such that
// BoolThr(T) decides exactly like Bool(p) — Float64() < p iff the
// 53-bit draw underlying Float64 is < T. Hoisting the float arithmetic
// to construction time keeps tight generation loops (two probability
// draws per simulated instruction) in integer compares.
func BoolThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	// Float64() = x / 2^53 with x an exact 53-bit integer, so
	// Float64() < p iff x < p*2^53. The product is exact (scaling by a
	// power of two only moves the exponent); x < v for integer x means
	// x < trunc(v) when v is integral, x <= trunc(v) otherwise.
	v := p * (1 << 53)
	t := uint64(v)
	if float64(t) != v {
		t++
	}
	return t
}

// BoolThr returns true with the probability baked into t by
// BoolThreshold, consuming one Uint64 exactly like Bool.
func (r *Rand) BoolThr(t uint64) bool {
	return r.Uint64()>>11 < t
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success
// (support {0, 1, 2, ...}, mean (1-p)/p). p must be in (0, 1].
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	// Avoid log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(u) / math.Log(1-p))
}

// Fork returns an independent generator derived from this one. Forked
// streams are used to give each simulated core / region its own sequence
// while remaining a pure function of the root seed.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64())
}

// quantBuckets is the size of the acceleration index used by the CDF
// samplers: bucket k narrows the inverse-CDF search for u in
// [k/quantBuckets, (k+1)/quantBuckets). 4096 buckets (16 KB of index
// per sampler) make the residual search range a handful of entries even
// in the dense tail of a several-thousand-entry Zipf CDF.
const quantBuckets = 4096

// buildQuantIndex precomputes, for each bucket boundary k/quantBuckets,
// the first CDF entry at or above it. Sample then only has to binary
// search inside one bucket's range, which for the skewed distributions
// used here is almost always a single entry. The index narrows the
// search range without changing which entry a given u selects, so
// sampling results are bit-identical to a full binary search.
func buildQuantIndex(cdf []float64) []int32 {
	qidx := make([]int32, quantBuckets+1)
	i := int32(0)
	n := int32(len(cdf) - 1)
	for k := 0; k <= quantBuckets; k++ {
		bound := float64(k) / quantBuckets
		for i < n && cdf[i] < bound {
			i++
		}
		qidx[k] = i
	}
	return qidx
}

// sampleCDF returns the first index with cdf[i] >= u. The bucket's
// [lo, hi] range is exact: entries before lo are < bucketLow <= u, and
// cdf[hi] >= bucketHigh > u, so the answer always lies inside it.
func sampleCDF(cdf []float64, qidx []int32, u float64) int {
	b := int(u * quantBuckets)
	if b >= quantBuckets {
		b = quantBuckets - 1
	}
	// The bucket ranges are a handful of entries at most, so a linear
	// first-≥ scan beats binary search (no mispredicted halving branches)
	// while selecting exactly the same entry.
	lo, hi := int(qidx[b]), int(qidx[b+1])
	for lo < hi && cdf[lo] < u {
		lo++
	}
	return lo
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It uses the inverse-CDF over a precomputed table, which is
// exact and fast for the table sizes used by the workload generators
// (thousands of functions).
type Zipf struct {
	cdf  []float64
	qidx []int32
}

// NewZipf builds a Zipf sampler over n items with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against FP round-off
	return &Zipf{cdf: cdf, qidx: buildQuantIndex(cdf)}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws a rank in [0, N()) using r.
func (z *Zipf) Sample(r *Rand) int {
	return sampleCDF(z.cdf, z.qidx, r.Float64())
}

// Categorical samples indices with fixed, arbitrary weights.
type Categorical struct {
	cdf  []float64
	qidx []int32
}

// NewCategorical builds a sampler over the given non-negative weights.
// At least one weight must be positive.
func NewCategorical(weights []float64) *Categorical {
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[len(cdf)-1] = 1
	return &Categorical{cdf: cdf, qidx: buildQuantIndex(cdf)}
}

// Sample draws an index using r.
func (c *Categorical) Sample(r *Rand) int {
	return sampleCDF(c.cdf, c.qidx, r.Float64())
}
