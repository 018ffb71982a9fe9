// Package stats implements the summary statistics used throughout the
// paper's analysis: mean, standard deviation, the worst-case variation
// ratios Vp/Vf/Vt (max/min within a set), least-squares linear fits with R²
// (Figure 5), correlation, and percentiles.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation, as in the paper's figures
	Min    float64
	Max    float64
	Median float64
}

// Variation returns the worst-case variation ratio max/min — the paper's
// Vp (power), Vf (frequency), or Vt (execution time) depending on what the
// sample holds. It returns +Inf when min is 0 and max is not.
func (s Summary) Variation() float64 {
	if s.Min == 0 {
		if s.Max == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return s.Max / s.Min
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))
	s.Median = Percentile(xs, 50)
	return s, nil
}

// MustSummarize is Summarize for samples known to be non-empty; it panics on
// an empty sample, which indicates a program bug rather than bad input.
func MustSummarize(xs []float64) Summary {
	s, err := Summarize(xs)
	if err != nil {
		panic(err)
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs; it panics on an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Variation returns max(xs)/min(xs) — the paper's worst-case variation. It
// panics on an empty sample and returns +Inf when min is 0 and max is not.
func Variation(xs []float64) float64 {
	s := MustSummarize(xs)
	return s.Variation()
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It panics on an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit is a least-squares line y = Slope*x + Intercept with its
// coefficient of determination R².
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// At evaluates the fitted line at x.
func (f LinearFit) At(x float64) float64 { return f.Slope*x + f.Intercept }

// FitLinear computes the least-squares fit of ys against xs. It returns
// ErrEmpty when fewer than two points are given and an error when all xs are
// identical (vertical line).
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: FitLinear length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: FitLinear degenerate x range")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		// All ys identical: the fit is exact by definition.
		fit.R2 = 1
		return fit, nil
	}
	var ssRes float64
	for i := range xs {
		r := ys[i] - fit.At(xs[i])
		ssRes += r * r
	}
	fit.R2 = 1 - ssRes/syy
	return fit, nil
}

// Correlation returns the Pearson correlation coefficient of xs and ys. It
// returns 0 when either sample has zero variance.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MeanAbsPctError returns mean(|pred-act|/act) over the paired samples,
// expressed as a fraction (0.05 == 5%). Pairs with act == 0 are skipped.
func MeanAbsPctError(pred, act []float64) float64 {
	if len(pred) != len(act) || len(pred) == 0 {
		return 0
	}
	var sum float64
	var n int
	for i := range pred {
		if act[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-act[i]) / math.Abs(act[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxAbsPctError returns max(|pred-act|/act) over the paired samples as a
// fraction. Pairs with act == 0 are skipped.
func MaxAbsPctError(pred, act []float64) float64 {
	var m float64
	for i := range pred {
		if i >= len(act) || act[i] == 0 {
			continue
		}
		e := math.Abs(pred[i]-act[i]) / math.Abs(act[i])
		if e > m {
			m = e
		}
	}
	return m
}
