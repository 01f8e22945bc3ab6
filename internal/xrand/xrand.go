// Package xrand provides deterministic pseudo-randomness for the
// simulation: a splittable seeded generator plus the distributions the
// workload generators need (Zipf, exponential, weighted choice).
//
// All randomness in the repository flows from an RNG constructed here so
// that experiments are reproducible bit-for-bit given a seed.
package xrand

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RNG is a deterministic pseudo-random generator based on SplitMix64 /
// xoshiro256**. It is intentionally not safe for concurrent use: each
// simulated actor owns its own RNG (use Split to derive one per actor).
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from seed via SplitMix64 expansion.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// NewNamed returns an RNG seeded from a base seed and a name, so that
// independent actors can derive uncorrelated streams deterministically.
func NewNamed(seed uint64, name string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return New(h)
}

// Split derives a new independent RNG from this one. The parent advances.
func (r *RNG) Split() *RNG { return New(r.Uint64()) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: Intn with n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct indices drawn uniformly from [0, n). If k >= n
// it returns all n indices in random order.
func (r *RNG) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Partial Fisher–Yates.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.Uint64())
		copy(b[i:], tail[:len(b)-i])
	}
}

// Zipf draws integers in [0, n) with P(k) proportional to 1/(k+1)^s.
// It uses the inverse-CDF over a precomputed table, which is exact and
// deterministic (unlike rejection sampling, whose acceptance path length
// depends on the RNG stream).
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf constructs a Zipf distribution over n items with exponent s > 0.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: Zipf with n <= 0")
	}
	if s <= 0 {
		panic("xrand: Zipf with s <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Next draws the next rank in [0, n), rank 0 being the most popular.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Weighted selects an index with probability proportional to weights[i].
// All weights must be non-negative and at least one positive.
func (r *RNG) Weighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: Weighted with zero total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
