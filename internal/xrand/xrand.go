// Package xrand provides deterministic, splittable pseudo-random streams.
//
// The variability model must assign each (system, module, workload) a stable
// random draw: module 1234 of the HA8K preset has the same leakage factor in
// every process, test, and benchmark, regardless of evaluation order. The
// standard library's global rand source is neither splittable nor stable
// across call ordering, so this package implements SplitMix64 (Steele,
// Lea & Flood, OOPSLA '14) with hash-derived substreams.
package xrand

import "math"

// Stream is a deterministic SplitMix64 generator. The zero value is a valid
// stream seeded with 0.
type Stream struct {
	state uint64
}

// New returns a stream seeded from the given value.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// NewKeyed returns a stream whose seed is derived by hashing the parent seed
// with a sequence of keys, giving independent substreams for e.g.
// (systemSeed, moduleID) or (systemSeed, moduleID, workloadName).
func NewKeyed(seed uint64, keys ...uint64) *Stream {
	s := seed
	for _, k := range keys {
		s = mix(s ^ mix(k))
	}
	return &Stream{state: s}
}

// HashString folds a string into a uint64 key (FNV-1a) for use with NewKeyed.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics when n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Normal returns a draw from N(mean, sigma^2) using the Box–Muller
// transform. Each call consumes two uniforms; the second Box–Muller variate
// is deliberately discarded to keep the stream's consumption pattern simple
// and independent of call history.
func (s *Stream) Normal(mean, sigma float64) float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + sigma*z
}

// LogNormal returns exp(N(mu, sigma^2)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// TruncNormal returns a draw from N(mean, sigma^2) truncated to [lo, hi] by
// rejection, falling back to clamping after 64 attempts so the generator
// never loops unboundedly for pathological bounds.
func (s *Stream) TruncNormal(mean, sigma, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		v := s.Normal(mean, sigma)
		if v >= lo && v <= hi {
			return v
		}
	}
	v := s.Normal(mean, sigma)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Uniform returns a uniform draw in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}
