package core

import (
	"math"
	"sort"
	"testing"

	"varpower/internal/units"
	"varpower/internal/xrand"
)

// bisectAlpha is the brute-force reference for SolveAlpha: the largest α in
// [0, 1] whose summed per-member allocation Σ lerp(min, max, α) fits the
// budget, found by bisection; 0 when not even α = 0 fits.
func bisectAlpha(mins, maxs []float64, budget float64) float64 {
	fits := func(alpha float64) bool {
		var sum float64
		for i := range mins {
			sum += units.Lerp(mins[i], maxs[i], alpha)
		}
		return sum <= budget
	}
	if !fits(0) {
		return 0
	}
	if fits(1) {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200 && hi-lo > 1e-15; i++ {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// FuzzSolveAlpha checks the α-kernel against bisectAlpha on random member
// populations of 1–64 members, at a fuzzed budget and on both sides of each
// regime boundary (0.85·ΣMin, ΣMin, ΣMax). Every member's range is either 0
// or at least 1 W, so rounding in the summed lerp moves the reference α by
// far less than the 1e-9 tolerance.
func FuzzSolveAlpha(f *testing.F) {
	f.Add(uint64(1), uint8(16), 0.5)
	f.Add(uint64(2), uint8(0), 0.0)
	f.Add(uint64(3), uint8(63), 0.7)
	f.Add(uint64(4), uint8(8), 1.4)
	f.Add(uint64(5), uint8(31), 0.62)
	f.Add(uint64(6), uint8(3), 0.95)
	f.Add(uint64(13), uint8(0), 0.8) // one member with a zero range: ΣRange = 0
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, frac float64) {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			return
		}
		rng := xrand.New(seed)
		members := 1 + int(n)%64
		mins, maxs := make([]float64, members), make([]float64, members)
		var sumMin, sumRange, sumMax float64
		for i := range mins {
			mins[i] = rng.Uniform(0, 200)
			if rng.Intn(8) == 0 {
				mins[i] = 0
			}
			maxs[i] = mins[i]
			if rng.Intn(4) != 0 {
				maxs[i] += rng.Uniform(1, 150)
			}
			sumMin += mins[i]
			sumRange += maxs[i] - mins[i]
			sumMax += maxs[i]
		}
		budgets := []float64{math.Mod(math.Abs(frac), 1.5) * sumMax, 0}
		for _, x := range []float64{0.5, 0.84, 0.85, 0.86, 0.999, 1} {
			budgets = append(budgets, x*sumMin)
		}
		for _, x := range []float64{0.5, 0.999, 1, 1.001} {
			budgets = append(budgets, sumMin+x*sumRange)
		}
		sort.Float64s(budgets)
		prev := -1.0
		for _, b := range budgets {
			sol, shrink := SolveAlpha(sumMin, sumRange, units.Watts(b))
			if want := bisectAlpha(mins, maxs, b); math.Abs(sol.Alpha-want) > 1e-9 {
				t.Fatalf("budget %v: alpha %v, bisection reference %v", b, sol.Alpha, want)
			}
			if sol.Alpha < prev {
				t.Fatalf("budget %v: alpha %v fell below %v at a smaller budget", b, sol.Alpha, prev)
			}
			prev = sol.Alpha
			if sol.Clamped != (b < sumMin) {
				t.Fatalf("budget %v, ΣMin %v: clamped = %v", b, sumMin, sol.Clamped)
			}
			// The kernel tests the ratio b/ΣMin, so within rounding of the
			// boundary itself either answer is right.
			edge := 0.85 * sumMin
			if math.Abs(b-edge) > 1e-12*edge && sol.Feasible != (b >= edge) {
				t.Fatalf("budget %v, 0.85·ΣMin %v: feasible = %v", b, edge, sol.Feasible)
			}
			if sol.Budget != units.Watts(b) {
				t.Fatalf("budget %v echoed as %v", b, sol.Budget)
			}
			if !sol.Feasible {
				continue
			}
			var total float64
			for i := range mins {
				total += units.Lerp(mins[i], maxs[i], sol.Alpha) * shrink
			}
			if total > b*(1+1e-9) {
				t.Fatalf("budget %v: feasible allocation sums to %v", b, total)
			}
		}
	})
}
