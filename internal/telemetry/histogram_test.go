package telemetry

import (
	"math"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(DefTimeBuckets)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty histogram: count=%d sum=%v", s.Count, s.Sum)
	}
	if !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) {
		t.Fatalf("empty histogram min/max: %v/%v", s.Min, s.Max)
	}
	for _, p := range []float64{0, 0.5, 1} {
		if _, ok := s.Quantile(p); ok {
			t.Fatalf("Quantile(%v) on empty histogram reported ok", p)
		}
	}
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %v", s.Mean())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	h.Observe(7.25)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 7.25 || s.Min != 7.25 || s.Max != 7.25 {
		t.Fatalf("single-sample snapshot: %+v", s)
	}
	// Every quantile of one sample is that sample, exactly.
	for _, p := range []float64{0, 0.01, 0.5, 0.99, 1} {
		q, ok := s.Quantile(p)
		if !ok || q != 7.25 {
			t.Fatalf("Quantile(%v) = %v, %v; want 7.25", p, q, ok)
		}
	}
}

func TestHistogramP0P100Exact(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	for _, v := range []float64{3.5, 900, 0.125, 41, 17} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if q, _ := s.Quantile(0); q != 0.125 {
		t.Fatalf("p0 = %v, want exact min 0.125", q)
	}
	if q, _ := s.Quantile(1); q != 900 {
		t.Fatalf("p100 = %v, want exact max 900 (above the top bound, +Inf bucket)", q)
	}
	// Quantiles out of range clamp to the exact extremes too.
	if q, _ := s.Quantile(-3); q != 0.125 {
		t.Fatalf("p<0 = %v, want min", q)
	}
	if q, _ := s.Quantile(7); q != 900 {
		t.Fatalf("p>1 = %v, want max", q)
	}
}

func TestHistogramQuantileMonotoneAndBounded(t *testing.T) {
	h := newHistogram(DefTimeBuckets)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-4) // 0.1 ms .. 100 ms
	}
	s := h.Snapshot()
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		q, ok := s.Quantile(p)
		if !ok {
			t.Fatalf("Quantile(%v) not ok", p)
		}
		if q < prev {
			t.Fatalf("quantiles not monotone: p=%v q=%v < prev %v", p, q, prev)
		}
		if q < s.Min || q > s.Max {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", p, q, s.Min, s.Max)
		}
		prev = q
	}
	// The median of a near-uniform sample should land near 50 ms; bucket
	// interpolation is coarse, so allow a wide band.
	if med, _ := s.Quantile(0.5); med < 0.02 || med > 0.08 {
		t.Fatalf("median %v implausible for uniform(0.0001, 0.1)", med)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(math.NaN())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("NaN was recorded: %+v", s)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("ExpBuckets len %d", len(b))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	if db := ExpBuckets(0, 2, 3); len(db) != 1 {
		t.Fatalf("degenerate ExpBuckets = %v", db)
	}
}

// TestObserveEachMatchesSequentialObserve: a batch leaves the histogram in
// exactly the state the same Observe calls made one by one leave it — the
// bucket counts, the sum's bits, min, max and the rejections of NaN, ±Inf
// and negative samples — on top of earlier samples, and an empty batch
// changes nothing.
func TestObserveEachMatchesSequentialObserve(t *testing.T) {
	// 2^53 absorbs the 1s that follow it, so the sum's bits depend on the
	// order the samples go in.
	vals := []float64{1 << 53, 1, 1, 0.1, 3e-7, math.NaN(), 0.3, 1e9, math.Inf(1), 0, -2, 0.2, math.Inf(-1), 41.5, 1e-12, 0.7}
	batched, sequential := newHistogram(DefTimeBuckets), newHistogram(DefTimeBuckets)
	for _, h := range []*Histogram{batched, sequential} {
		h.Observe(5e-4) // earlier state the batch accumulates onto
	}
	batched.ObserveEach(len(vals), func(i int) float64 { return vals[i] })
	batched.ObserveEach(0, func(int) float64 { panic("empty batch read a value") })
	for _, v := range vals {
		sequential.Observe(v)
	}
	got, want := batched.Snapshot(), sequential.Snapshot()
	if got.Count != want.Count || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) ||
		got.Min != want.Min || got.Max != want.Max || got.Dropped != want.Dropped {
		t.Fatalf("batched count=%d sum=%v min=%v max=%v dropped=%d, sequential count=%d sum=%v min=%v max=%v dropped=%d",
			got.Count, got.Sum, got.Min, got.Max, got.Dropped, want.Count, want.Sum, want.Min, want.Max, want.Dropped)
	}
	if want.Dropped != 4 {
		t.Fatalf("sequential Observe dropped %d samples, want 4 (NaN, ±Inf, -2)", want.Dropped)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: batched %d, sequential %d", i, got.Counts[i], want.Counts[i])
		}
	}
}
