package telemetry

import (
	"math"
	"sort"
	"sync"
)

// DefTimeBuckets is the default histogram layout for wall-clock durations
// in seconds: 1 µs to ~100 s, roughly quarter-decade spaced. It covers
// both the microsecond-scale per-task spans of the parallel engine and the
// multi-minute grid sweeps.
var DefTimeBuckets = ExpBuckets(1e-6, math.Sqrt(10), 17)

// WattBuckets is the default layout for power quantities (watts): 0.5 W to
// ~130 W, covering the per-module clamp magnitudes of every Table-1
// architecture.
var WattBuckets = ExpBuckets(0.5, math.Sqrt2, 17)

// SecondBuckets is a coarse layout for simulated per-rank times (virtual
// seconds): 10 ms to ~1000 s.
var SecondBuckets = ExpBuckets(0.01, math.Sqrt(10), 11)

// ExpBuckets returns n exponentially spaced upper bounds starting at start
// and growing by factor. +Inf is implicit and must not be included.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram accumulates float64 observations into fixed buckets and
// tracks count, sum, min and max. It is safe for concurrent use, and —
// because bucket counts are commutative — its exported state does not
// depend on the order in which concurrent observers ran.
//
// Quantiles are estimated by linear interpolation inside the bucket that
// holds the target rank, clamped to the observed [min, max]; with a single
// sample every quantile is that sample, and p ≤ 0 / p ≥ 1 return the exact
// min / max.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit

	mu        sync.Mutex
	counts    []uint64 // len(bounds)+1; last is the +Inf bucket
	count     uint64
	sum       float64
	min       float64
	max       float64
	dropped   uint64     // rejected observations (NaN, ±Inf, negative)
	exemplars []Exemplar // lazily allocated, len(bounds)+1; last-wins per bucket
}

// Exemplar ties one concrete observation to the trace that produced it, so
// a histogram bucket on a dashboard links to a request trace. A zero
// TraceID means the bucket has no exemplar.
type Exemplar struct {
	TraceID string
	Value   float64
}

// newHistogram builds a histogram with the given upper bounds (copied,
// sorted ascending).
func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]uint64, len(bs)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one sample. Every histogram in this repository measures a
// non-negative physical quantity (durations, watts, simulated seconds), so
// NaN, ±Inf and negative samples are rejected — a single such value would
// otherwise poison Sum/Min/Max and every quantile derived from them.
// Rejections are tallied in the snapshot's Dropped count.
func (h *Histogram) Observe(v float64) { h.ObserveWithExemplar(v, "") }

// ObserveWithExemplar records one sample and, when traceID is non-empty,
// pins it as the bucket's exemplar (last observation wins — recency is what
// makes an exemplar actionable). The same validity guard as Observe applies.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.mu.Lock()
	if i, ok := h.add(v); ok && traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]Exemplar, len(h.counts))
		}
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: v}
	}
	h.mu.Unlock()
}

// ObserveEach records v(0), …, v(n-1) in index order under one lock
// acquisition, leaving the histogram in exactly the state n Observe calls
// made one after another would: the same counts, the same sum bits, the
// same rejections. A run's per-rank samples go through it, so a run takes
// the histogram's lock once, not once per rank, and needs no slice of its
// samples. v runs under the lock: it must be a plain read that does not
// touch h.
func (h *Histogram) ObserveEach(n int, v func(i int) float64) {
	h.mu.Lock()
	for i := 0; i < n; i++ {
		h.add(v(i))
	}
	h.mu.Unlock()
}

// add records one sample under h.mu and returns its bucket, or tallies the
// rejection and reports false.
func (h *Histogram) add(v float64) (int, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		h.dropped++
		return 0, false
	}
	i := bucket(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	return i, true
}

// bucket returns the index of the first bound ≥ v, or len(bounds) (the
// +Inf bucket) when there is none: sort.SearchFloat64s's answer for
// ascending bounds, by a binary search written out so no closure runs per
// probe.
func bucket(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HistSnapshot is a consistent copy of a histogram's state.
type HistSnapshot struct {
	Bounds  []float64 // upper bounds, ascending; +Inf implicit
	Counts  []uint64  // len(Bounds)+1, per-bucket (not cumulative)
	Count   uint64
	Sum     float64
	Min     float64 // +Inf when empty
	Max     float64 // -Inf when empty
	Dropped uint64  // observations rejected by the Observe guard
	// Exemplars is nil until an exemplar has been recorded, else
	// len(Counts) entries aligned with Counts (zero TraceID = none).
	Exemplars []Exemplar
}

// Snapshot returns a consistent copy.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds:  h.bounds,
		Counts:  make([]uint64, len(h.counts)),
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Dropped: h.dropped,
	}
	copy(s.Counts, h.counts)
	if h.exemplars != nil {
		s.Exemplars = make([]Exemplar, len(h.exemplars))
		copy(s.Exemplars, h.exemplars)
	}
	return s
}

// Quantile estimates the p-quantile (p in [0, 1]) of the observations.
// ok is false when the histogram is empty. p ≤ 0 returns the exact
// minimum, p ≥ 1 the exact maximum; interior quantiles interpolate within
// the holding bucket and are clamped to [Min, Max].
func (s HistSnapshot) Quantile(p float64) (float64, bool) {
	if s.Count == 0 {
		return 0, false
	}
	if p <= 0 {
		return s.Min, true
	}
	if p >= 1 {
		return s.Max, true
	}
	// Nearest-rank target in [1, Count].
	target := uint64(math.Ceil(p * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if cum < target {
			continue
		}
		// Bucket i holds the target rank. Interpolate between the bucket's
		// effective bounds, clamped to the observed range so degenerate
		// buckets (single sample, +Inf bucket) stay exact.
		lo := s.Min
		if i > 0 {
			lo = math.Max(lo, s.Bounds[i-1])
		}
		hi := s.Max
		if i < len(s.Bounds) {
			hi = math.Min(hi, s.Bounds[i])
		}
		if hi <= lo {
			return lo, true
		}
		frac := float64(target-prev) / float64(c)
		return lo + (hi-lo)*frac, true
	}
	return s.Max, true
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
