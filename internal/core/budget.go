package core

import (
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/hw/module"
	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// Budget-solver telemetry: solve counts by outcome, plus gauges tracking
// the most recent α and budget residual (budget minus the sum of the
// per-module allocations — the slack the linear model leaves on the
// table). Under a parallel grid the gauges hold the last-finished cell's
// values; the counters and the α histogram aggregate across all solves.
var (
	mSolves = telemetry.Default().Counter("varpower_budget_solves_total",
		"Budget solves (Equations 1-9).", nil)
	mSolveInfeasible = telemetry.Default().Counter("varpower_budget_infeasible_total",
		"Solves declared infeasible (budget below best-effort fmin power).", nil)
	mSolveClamped = telemetry.Default().Counter("varpower_budget_clamped_total",
		"Solves with alpha clamped to 0 (best-effort admission below predicted fmin power).", nil)
	mAlphaGauge = telemetry.Default().Gauge("varpower_budget_alpha",
		"Alpha of the most recent budget solve.", nil)
	mResidualGauge = telemetry.Default().Gauge("varpower_budget_residual_watts",
		"Budget minus summed per-module allocation of the most recent solve.", nil)
	mAlphaHist = telemetry.Default().Histogram("varpower_budget_alpha_hist",
		"Distribution of solved alpha values.", telemetry.ExpBuckets(0.05, 1.26, 16), nil)
)

// ModuleAlloc is the power allocation derived for one module (Equations
// 7–9): its module budget, the DRAM power predicted at the chosen operating
// point, and the CPU cap that realises the budget. A GPU device's is its
// board power limit in Pmodule and Pcpu, with Pdram 0.
type ModuleAlloc struct {
	ModuleID int
	Pmodule  units.Watts
	Pdram    units.Watts
	Pcpu     units.Watts
}

// Solution is the α-kernel's verdict on one budget, shared by every level
// that budgets (modules, GPU devices, device classes, jobs).
type Solution struct {
	// Alpha is the power-performance coefficient (Equation 6), clamped to
	// [0, 1]. It is common to all members so that they all target the same
	// frequency — that is the homogeneity mechanism.
	Alpha float64
	// Feasible is false when even α = 0 (every member at its floor) exceeds
	// the budget by more than the best-effort margin — the paper's "–"
	// scenarios.
	Feasible bool
	// Clamped reports best-effort admission: the model predicted that even
	// floor operation slightly exceeds the budget (α would be negative), so
	// α was clamped to 0 and the allocations scaled down proportionally to
	// fit. This happens at boundary budgets when the calibrated model
	// over-predicts power; members then run at (or just below) the floor.
	Clamped bool
	// Constrained is false when α = 1 satisfies the budget with slack,
	// i.e. no capping below the nominal clock is needed.
	Constrained bool
	// Budget echoes the power constraint.
	Budget units.Watts
}

// bestEffortMargin bounds how far below the predicted floor power a budget
// may fall and still be admitted (with proportionally shrunk allocations).
// Beyond it the budget is declared infeasible.
const bestEffortMargin = 0.85

// SolveAlpha is the α-kernel (Equation 6): the largest α in [0, 1] with
//
//	α·sumRange + sumMin ≤ budget
//
// where sumMin and sumRange sum the members' floor powers and power ranges.
// Below sumMin, α is 0 and every allocation is scaled by the returned shrink
// factor budget/sumMin (1 otherwise). The kernel validates nothing and
// records nothing: callers check their inputs and count their solves.
func SolveAlpha(sumMin, sumRange float64, budget units.Watts) (Solution, float64) {
	sol := Solution{Budget: budget, Feasible: true, Constrained: true}
	shrink := 1.0
	switch {
	case float64(budget) < sumMin:
		sol.Clamped = true
		shrink = float64(budget) / sumMin
		if shrink < bestEffortMargin {
			sol.Feasible = false
		}
	case sumRange == 0:
		sol.Alpha = 1
		sol.Constrained = false
	default:
		sol.Alpha = (float64(budget) - sumMin) / sumRange
		if sol.Alpha >= 1 {
			sol.Alpha = 1
			sol.Constrained = false
		}
	}
	return sol, shrink
}

// recordSolve counts one module- or device-level solve by outcome and
// observes its α.
func recordSolve(sol Solution) {
	mSolves.Inc()
	if !sol.Feasible {
		mSolveInfeasible.Inc()
	}
	if sol.Clamped {
		mSolveClamped.Inc()
	}
	mAlphaHist.Observe(sol.Alpha)
}

// Allocation is the output of the budgeting algorithm for one application
// under one power constraint.
type Allocation struct {
	Solution
	// Freq is the common target CPU frequency f = α(fmax−fmin)+fmin
	// (Equation 1); for a GPU device class, the SM clock to lock.
	Freq units.Hertz
	// Entries are the per-module allocations.
	Entries []ModuleAlloc
}

// TotalPredicted sums the per-module allocations — by construction ≤ Budget
// whenever Feasible.
func (a *Allocation) TotalPredicted() units.Watts {
	var sum units.Watts
	for _, e := range a.Entries {
		sum += e.Pmodule
	}
	return sum
}

// CPUCaps returns the per-module CPU caps in entry order, ready for the PC
// implementation.
func (a *Allocation) CPUCaps() []units.Watts {
	caps := make([]units.Watts, len(a.Entries))
	for i, e := range a.Entries {
		caps[i] = e.Pcpu
	}
	return caps
}

// Solve runs the variation-aware budgeting algorithm (Section 5.1): choose
// the maximum α with
//
//	Σᵢ ( α·(Pmodule_max,i − Pmodule_min,i) + Pmodule_min,i ) ≤ budget
//
// (SolveAlpha over the modules' summed ranges), then derive each module's
// allocation at that α. The arch parameter supplies the frequency range for
// Equation 1. Solve is Allocate of a bare module table, with no margin;
// budget consumers allocate through their model's Allocate.
func Solve(pmt *PMT, arch *module.Arch, budget units.Watts) (*Allocation, error) {
	return (&Model{PMT: pmt}).Allocate(cluster.Spec{Arch: arch}, budget)
}

// Allocate turns a budget into the model's allocation: the α-solve of its
// table at budget·(1 − Margin) on its class's clock ladder, read from spec
// (P-states for modules, SM clocks for GPU devices), with the full budget
// echoed. It is the one path from a model to an allocation. An infeasible
// budget is reported in Feasible, not as an error; paths that go on to
// execute return ErrBudgetInfeasible for it. A module model's solve sets
// the α and residual gauges, the residual against the reduced budget.
func (m *Model) Allocate(spec cluster.Spec, budget units.Watts) (*Allocation, error) {
	c := m.class
	if c == nil {
		c = moduleClass
	}
	lo, hi := c.ladder(spec)
	alloc, err := solve(m.PMT, lo, hi, units.Watts(float64(budget)*(1-m.Margin)))
	if err != nil {
		return nil, err
	}
	if c == moduleClass {
		mAlphaGauge.Set(alloc.Alpha)
		mResidualGauge.Set(float64(alloc.Budget - alloc.TotalPredicted()))
	}
	alloc.Budget = budget
	return alloc, nil
}

// solve is the α-solve of any class's table over the clock ladder [lo, hi]:
// a GPU device's entry has DRAM power 0, so its allocation carries the
// board power limit in Pmodule and Pcpu and 0 in Pdram.
func solve(pmt *PMT, lo, hi units.Hertz, budget units.Watts) (*Allocation, error) {
	if len(pmt.Entries) == 0 {
		return nil, fmt.Errorf("core: solve on empty PMT")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("core: non-positive budget %v", budget)
	}
	var sumMin, sumRange float64
	for i := range pmt.Entries {
		e := &pmt.Entries[i]
		min := float64(e.ModuleMin())
		max := float64(e.ModuleMax())
		if min < 0 || max < min {
			return nil, fmt.Errorf("core: module %d has inverted power range [%v, %v]", e.ModuleID, min, max)
		}
		sumMin += min
		sumRange += max - min
	}
	sol, shrink := SolveAlpha(sumMin, sumRange, budget)
	alloc := &Allocation{
		Solution: sol,
		Freq:     units.Hertz(units.Lerp(float64(lo), float64(hi), sol.Alpha)),
		Entries:  make([]ModuleAlloc, len(pmt.Entries)),
	}
	for i := range pmt.Entries {
		e := &pmt.Entries[i]
		pm := units.Watts(units.Lerp(float64(e.ModuleMin()), float64(e.ModuleMax()), sol.Alpha) * shrink)
		pd := units.Watts(units.Lerp(float64(e.DramMin), float64(e.DramMax), sol.Alpha) * shrink)
		alloc.Entries[i] = ModuleAlloc{
			ModuleID: e.ModuleID,
			Pmodule:  pm,
			Pdram:    pd,
			Pcpu:     pm - pd,
		}
	}
	recordSolve(alloc.Solution)
	return alloc, nil
}
