package telemetry

import (
	"math"
	"testing"
)

// TestHistogramRejectsNonFinite is the regression test for the Observe
// guard: NaN, ±Inf and negative samples must be dropped (tallied in
// Dropped) without perturbing Count, Sum, Min, Max or any quantile.
func TestHistogramRejectsNonFinite(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e300} {
		h.Observe(bad)
	}
	s := h.Snapshot()
	if s.Count != 0 {
		t.Fatalf("rejected samples were recorded: %+v", s)
	}
	if s.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", s.Dropped)
	}
	if !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) {
		t.Fatalf("Min/Max perturbed by rejected samples: %+v", s)
	}
	if _, ok := s.Quantile(0.5); ok {
		t.Fatal("quantile reported ok on a histogram of only rejected samples")
	}

	// Valid samples still record, and the tally is cumulative.
	h.Observe(2)
	h.Observe(math.Inf(1))
	s = h.Snapshot()
	if s.Count != 1 || s.Sum != 2 || s.Min != 2 || s.Max != 2 {
		t.Fatalf("valid sample mis-recorded after rejections: %+v", s)
	}
	if s.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped)
	}
}
