package core

import (
	"fmt"
	"strings"

	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// Hierarchical budgeting: on a heterogeneous system the machine-level
// budget is first split across device classes (CPU packages, GPU boards),
// then each class runs its own variation-aware α-solve over its members.
// The split is where heterogeneity bites — a GPU-heavy node wastes most of
// a uniform per-class share on the CPU side — so the splitter is a
// first-class, swappable policy.

var (
	mSplits = telemetry.Default().Counter("varpower_split_total",
		"Hierarchical class-budget splits performed.", nil)
	mSplitStarved = telemetry.Default().Counter("varpower_split_starved_total",
		"Splits where at least one class received less than its minimum demand.", nil)
)

// Splitter selects the policy dividing a system budget across device
// classes before the per-class α-solves.
type Splitter int

const (
	// SplitUniform divides the budget into equal class shares regardless of
	// class size or power range — the naive baseline every hierarchical
	// policy is measured against.
	SplitUniform Splitter = iota
	// SplitProportional divides the budget in proportion to each class's
	// maximum demand (ΣPmax), the static spec-sheet-informed policy.
	SplitProportional
	// SplitEfficiency grants each class its minimum demand, then waterfills
	// the remainder in proportion to measured marginal efficiency —
	// seconds of predicted runtime recovered per watt granted.
	SplitEfficiency
	// SplitGreedy grants each class its minimum demand, then assigns the
	// remainder in small chunks, each to the class currently bounding the
	// job's completion time (the max over class times). It approximates the
	// optimal split of the min-max objective without a closed form.
	SplitGreedy
)

var splitterNames = map[Splitter]string{
	SplitUniform:      "uniform",
	SplitProportional: "proportional",
	SplitEfficiency:   "efficiency",
	SplitGreedy:       "greedy",
}

// String returns the splitter's CLI/API name.
func (s Splitter) String() string {
	if n, ok := splitterNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Splitter(%d)", int(s))
}

// AllSplitters lists every policy in presentation order.
func AllSplitters() []Splitter {
	return []Splitter{SplitUniform, SplitProportional, SplitEfficiency, SplitGreedy}
}

// SplitterByName resolves a CLI/API name, case-insensitively.
func SplitterByName(name string) (Splitter, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, s := range AllSplitters() {
		if s.String() == want {
			return s, nil
		}
	}
	names := make([]string, 0, len(splitterNames))
	for _, s := range AllSplitters() {
		names = append(names, s.String())
	}
	return 0, fmt.Errorf("core: unknown splitter %q (have %s)", name, strings.Join(names, ", "))
}

// ClassDemand describes one device class's envelope to the splitter: the
// summed minimum and maximum power demands of its members (from the class
// PMT), and the predicted class time as a function of the class's α — the
// measured-efficiency signal the non-static splitters consume.
type ClassDemand struct {
	Class string
	Min   units.Watts
	Max   units.Watts
	// TimeAt predicts the class's completion time at throttle level alpha
	// in [0, 1]. Must be non-increasing in alpha. Nil is allowed for the
	// static splitters (uniform, proportional) only.
	TimeAt func(alpha float64) units.Seconds
}

// alphaAt inverts a class budget into the class α the per-class solve will
// reach (clamped to [0, 1]; 0 when the class is starved below Min).
func (d *ClassDemand) alphaAt(budget units.Watts) float64 {
	sol, _ := SolveAlpha(float64(d.Min), float64(d.Max-d.Min), budget)
	return sol.Alpha
}

// splitChunks is the granularity of the greedy splitter: the headroom above
// ΣMin is assigned in this many equal chunks. Fine enough that the
// discretisation error is below the per-class solve's own quantisation
// (P-state and SM-clock ladders), coarse enough to stay trivially cheap.
const splitChunks = 96

// SplitBudget divides total across the classes under policy s. The result
// is the same length and order as demands and sums to total exactly (the
// final share absorbs the floating-point residual), provided total covers
// at least ΣMin; below that every policy degrades to proportional-to-Min
// best-effort shares, mirroring the clamped regime of the α-solve.
func SplitBudget(s Splitter, total units.Watts, demands []ClassDemand) ([]units.Watts, error) {
	n := len(demands)
	if n == 0 {
		return nil, fmt.Errorf("core: split over zero classes")
	}
	if total <= 0 {
		return nil, fmt.Errorf("core: non-positive system budget %v", total)
	}
	for i := range demands {
		d := &demands[i]
		if d.Min < 0 || d.Max < d.Min {
			return nil, fmt.Errorf("core: class %q has inverted demand range [%v, %v]", d.Class, d.Min, d.Max)
		}
		if d.TimeAt == nil && (s == SplitEfficiency || s == SplitGreedy) {
			return nil, fmt.Errorf("core: splitter %v needs a time model for class %q", s, d.Class)
		}
	}
	mSplits.Inc()
	var sumMin units.Watts
	for i := range demands {
		sumMin += demands[i].Min
	}
	out := make([]units.Watts, n)
	switch {
	case s == SplitUniform:
		// The naive baseline ignores demands entirely.
		share := total / units.Watts(float64(n))
		for i := range out {
			out[i] = share
		}
	case total < sumMin && sumMin > 0:
		// Starvation regime: no policy can cover the minima, so all scale
		// the class minima by the common best-effort factor.
		mSplitStarved.Inc()
		for i := range demands {
			out[i] = units.Watts(float64(total) * float64(demands[i].Min) / float64(sumMin))
		}
	case s == SplitProportional:
		var sumMax units.Watts
		for i := range demands {
			sumMax += demands[i].Max
		}
		if sumMax == 0 {
			share := total / units.Watts(float64(n))
			for i := range out {
				out[i] = share
			}
			break
		}
		for i := range demands {
			out[i] = units.Watts(float64(total) * float64(demands[i].Max) / float64(sumMax))
		}
	case s == SplitEfficiency:
		splitEfficiency(total, demands, out)
	case s == SplitGreedy:
		splitGreedy(total, demands, out)
	default:
		return nil, fmt.Errorf("core: unknown splitter %v", s)
	}
	for i := range demands {
		if out[i] < demands[i].Min {
			mSplitStarved.Inc()
			break
		}
	}
	// Exact conservation: assign the floating-point residual to the last
	// class so Σ out == total bit-for-bit.
	var sum units.Watts
	for _, w := range out[:n-1] {
		sum += w
	}
	out[n-1] = total - sum
	return out, nil
}

// splitEfficiency covers every class's minimum, then waterfills the
// headroom in proportion to measured marginal efficiency — predicted
// seconds recovered per watt over the class's full power range — clamping
// classes at Max and redistributing what they cannot absorb.
func splitEfficiency(total units.Watts, demands []ClassDemand, out []units.Watts) {
	n := len(demands)
	for i := range demands {
		out[i] = demands[i].Min
	}
	headroom := total
	for i := range demands {
		headroom -= demands[i].Min
	}
	eff := make([]float64, n)
	capped := make([]bool, n)
	for i := range demands {
		d := &demands[i]
		if d.Max <= d.Min {
			capped[i] = true
			continue
		}
		gain := float64(d.TimeAt(0) - d.TimeAt(1))
		if gain < 0 {
			gain = 0
		}
		eff[i] = gain / float64(d.Max-d.Min)
	}
	// At most n rounds: each round either exhausts the headroom or caps at
	// least one more class at its Max.
	for round := 0; round < n && headroom > 1e-12; round++ {
		var sumEff float64
		for i := range demands {
			if !capped[i] {
				sumEff += eff[i]
			}
		}
		if sumEff == 0 {
			// No class reports marginal benefit; spread evenly over the
			// uncapped classes (surplus budget is harmless, and classes at
			// Max simply will not draw it).
			open := 0
			for i := range demands {
				if !capped[i] {
					open++
				}
			}
			if open == 0 {
				break
			}
			share := headroom / units.Watts(float64(open))
			for i := range demands {
				if !capped[i] {
					out[i] += share
				}
			}
			headroom = 0
			break
		}
		grant := headroom
		headroom = 0
		for i := range demands {
			if capped[i] {
				continue
			}
			w := units.Watts(float64(grant) * eff[i] / sumEff)
			if room := demands[i].Max - out[i]; w >= room {
				out[i] = demands[i].Max
				capped[i] = true
				headroom += w - room
				continue
			}
			out[i] += w
		}
	}
	if headroom > 0 {
		// Everything is at Max; park the surplus on the last class (its
		// solve clamps at α=1 and the excess is simply unspent).
		out[n-1] += headroom
	}
}

// splitGreedy covers every class's minimum, then assigns the headroom in
// splitChunks equal chunks, each to the class currently bounding the
// predicted completion time (ties break to the lowest index, keeping the
// policy deterministic). Classes at Max stop receiving.
func splitGreedy(total units.Watts, demands []ClassDemand, out []units.Watts) {
	n := len(demands)
	for i := range demands {
		out[i] = demands[i].Min
	}
	headroom := total
	for i := range demands {
		headroom -= demands[i].Min
	}
	if headroom <= 0 {
		return
	}
	chunk := headroom / units.Watts(float64(splitChunks))
	remaining := headroom
	for c := 0; c < splitChunks && remaining > 1e-12; c++ {
		// The bottleneck class: argmax of predicted class time at the α its
		// current share buys, among classes that can still absorb power.
		best, bestTime := -1, units.Seconds(-1)
		for i := range demands {
			d := &demands[i]
			if out[i] >= d.Max && d.Max > d.Min {
				continue
			}
			t := d.TimeAt(d.alphaAt(out[i]))
			if t > bestTime {
				best, bestTime = i, t
			}
		}
		if best == -1 {
			break
		}
		w := chunk
		if w > remaining {
			w = remaining
		}
		if room := demands[best].Max - out[best]; demands[best].Max > demands[best].Min && w > room {
			w = room
		}
		if w <= 0 {
			break
		}
		out[best] += w
		remaining -= w
	}
	if remaining > 0 {
		// All classes saturated; surplus parks on the last class unspent.
		out[n-1] += remaining
	}
}
