package stats

import (
	"math"
	"testing"
	"testing/quick"

	"varpower/internal/xrand"
)

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("bad summary %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("population std = %v, want 2", s.Std)
	}
	if s.Median != 4.5 {
		t.Fatalf("median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSummarize(nil) did not panic")
		}
	}()
	MustSummarize(nil)
}

func TestVariation(t *testing.T) {
	if v := Variation([]float64{50, 60, 65}); math.Abs(v-1.3) > 1e-12 {
		t.Fatalf("Variation = %v, want 1.3", v)
	}
	if v := Variation([]float64{0, 0}); v != 1 {
		t.Fatalf("all-zero variation = %v, want 1", v)
	}
	if v := Variation([]float64{0, 5}); !math.IsInf(v, 1) {
		t.Fatalf("zero-min variation = %v, want +Inf", v)
	}
}

func TestVariationAtLeastOne(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && x > 0 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		return Variation(clean) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {62.5, 3.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// The input must not be reordered.
	orig := []float64{5, 1, 3}
	Percentile(orig, 50)
	if orig[0] != 5 || orig[1] != 1 || orig[2] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 || fit.R2 != 1 {
		t.Fatalf("bad fit %+v", fit)
	}
	if math.Abs(fit.At(10)-23) > 1e-12 {
		t.Fatalf("At(10) = %v, want 23", fit.At(10))
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := xrand.New(3)
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 50
		xs = append(xs, x)
		ys = append(ys, 4*x+1+rng.Normal(0, 0.05))
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-4) > 0.02 || math.Abs(fit.Intercept-1) > 0.05 {
		t.Fatalf("noisy fit off: %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v, want ≥ 0.99", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point fit should fail")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("vertical line should fail")
	}
}

func TestFitLinearConstantY(t *testing.T) {
	fit, err := FitLinear([]float64{1, 2, 3}, []float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 7 || fit.R2 != 1 {
		t.Fatalf("constant-y fit %+v", fit)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	down := []float64{10, 8, 6, 4, 2}
	if c := Correlation(xs, up); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v", c)
	}
	if c := Correlation(xs, down); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v", c)
	}
	if c := Correlation(xs, []float64{3, 3, 3, 3, 3}); c != 0 {
		t.Errorf("zero-variance correlation = %v, want 0", c)
	}
	if c := Correlation(xs, xs[:2]); c != 0 {
		t.Errorf("mismatched lengths correlation = %v, want 0", c)
	}
}

func TestPctErrors(t *testing.T) {
	pred := []float64{110, 90, 100}
	act := []float64{100, 100, 100}
	if m := MeanAbsPctError(pred, act); math.Abs(m-0.1+0.1/3) > 0.034 {
		// mean(0.1, 0.1, 0) = 0.0667
		if math.Abs(m-0.0667) > 1e-3 {
			t.Errorf("mean pct error = %v", m)
		}
	}
	if m := MaxAbsPctError(pred, act); math.Abs(m-0.1) > 1e-12 {
		t.Errorf("max pct error = %v, want 0.1", m)
	}
	if m := MeanAbsPctError([]float64{1}, []float64{0}); m != 0 {
		t.Errorf("zero-actual pairs should be skipped, got %v", m)
	}
	if m := MeanAbsPctError(nil, nil); m != 0 {
		t.Errorf("empty error = %v", m)
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 || Mean(xs) != 3 {
		t.Fatal("Min/Max/Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}
