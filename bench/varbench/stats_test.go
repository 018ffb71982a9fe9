package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.125, 15}} {
		if got := quantile(s, c.p); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// Spreads are meant to match Python's statistics.quantiles(xs, n=4); these
// are its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	p99 := tailAt(xs, 0.99)
	if p99.Beyond != 10 || !p99.Supported() || p99.Samples != 1000 {
		t.Errorf("p99 of 1000 = %+v, want 10 beyond and supported", p99)
	}
	p999 := tailAt(xs, 0.999)
	if p999.Beyond != 1 || p999.Supported() {
		t.Errorf("p99.9 of 1000 = %+v, want 1 beyond and unsupported", p999)
	}
	// Ties at the percentile are not beyond it.
	flat := make([]float64, 100)
	if tl := tailAt(flat, 0.9); tl.Beyond != 0 {
		t.Errorf("tail of a constant sample has %d beyond, want 0", tl.Beyond)
	}
}
