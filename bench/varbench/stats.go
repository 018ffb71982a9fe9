package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between the closest ranks; NaN when sorted is empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is quantile(xs, 0.5) over an unsorted slice.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive" method), so
// spreads computed here match ones computed from the results with Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's integer arithmetic, clamp included.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the run-to-run
// noise measure every bound in BENCHMARK.json is compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// tail is a high percentile together with the evidence behind it.
type tail struct {
	Value   float64
	Samples int // observations the percentile was taken over
	Beyond  int // observations strictly above Value
}

// Supported reports whether at least ten observations lie beyond the
// percentile — below that, the value is one or two outliers, not a tail.
func (t tail) Supported() bool { return t.Beyond >= 10 }

// tailAt computes the p-quantile of sorted with its beyond count.
func tailAt(sorted []float64, p float64) tail {
	v := quantile(sorted, p)
	beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return tail{Value: v, Samples: len(sorted), Beyond: beyond}
}
