package core

import (
	"fmt"

	"varpower/internal/units"
	"varpower/internal/workload"
)

// This file extends the framework to applications with *phase behaviour* —
// the second half of the paper's future-work sentence: "dynamic
// reallocation of power within and between HPC applications by analyzing
// their phase behavior".
//
// A phased application is a sequence of segments with different
// computational and power characteristics (e.g. a setup DGEMM-like phase
// followed by a STREAM-like checkpoint phase). The static framework
// calibrates once — effectively for whichever phase the test run sampled —
// and holds one set of caps; the phase-aware runner re-calibrates and
// re-solves at every phase boundary under the same budget.

// PhasedRun is one phase's outcome.
type PhasedRun struct {
	Phase   int
	Bench   string
	Alpha   float64
	Freq    units.Hertz
	Elapsed units.Seconds
	Power   units.Watts
}

// PhasedResult aggregates a phased execution.
type PhasedResult struct {
	Budget units.Watts
	Phases []PhasedRun
	// Elapsed is the application's total runtime (phases are sequential).
	Elapsed units.Seconds
	// MaxPower is the highest phase-average total power — what a hard
	// budget audit would look at.
	MaxPower units.Watts
}

func validatePhases(phases []*workload.Benchmark) error {
	if len(phases) == 0 {
		return fmt.Errorf("core: phased run with no phases")
	}
	for i, p := range phases {
		if p == nil {
			return fmt.Errorf("core: phase %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: phase %d: %w", i, err)
		}
	}
	return nil
}

// RunPhasedStatic executes the phases under allocations derived *once*,
// from the first phase's calibration — what the static framework would do
// to a phased application. Caps stay fixed across phases: when a later
// phase draws differently, RAPL still enforces the stale caps (possibly
// far from the phase's best operating point) or, under FS, the stale
// frequency holds.
func (fw *Framework) RunPhasedStatic(phases []*workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool) (*PhasedResult, error) {
	if err := validatePhases(phases); err != nil {
		return nil, err
	}
	pmt, err := fw.calibrated(moduleClass, phases[0], moduleIDs)
	if err != nil {
		return nil, err
	}
	return fw.runPhases(phases, moduleIDs, budget, fs, func(*workload.Benchmark) (*PMT, error) {
		return pmt, nil
	})
}

// RunPhasedAdaptive re-calibrates and re-solves at every phase boundary —
// the phase-aware reallocation of the paper's future work. The extra cost
// is one single-module test pair per phase.
func (fw *Framework) RunPhasedAdaptive(phases []*workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool) (*PhasedResult, error) {
	if err := validatePhases(phases); err != nil {
		return nil, err
	}
	return fw.runPhases(phases, moduleIDs, budget, fs, func(phase *workload.Benchmark) (*PMT, error) {
		return fw.calibrated(moduleClass, phase, moduleIDs)
	})
}

// schemeFor names the variation-aware scheme an extension runner enforces
// through: VaFs when fs, VaPc otherwise.
func schemeFor(fs bool) Scheme {
	if fs {
		return VaFs
	}
	return VaPc
}

// runPhases executes the phases sequentially, each through RunModel on the
// power model the planner callback supplies for it.
func (fw *Framework) runPhases(phases []*workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool,
	plan func(*workload.Benchmark) (*PMT, error)) (*PhasedResult, error) {

	out := &PhasedResult{Budget: budget}
	for i, phase := range phases {
		pmt, err := plan(phase)
		if err != nil {
			return nil, fmt.Errorf("core: phase %d (%s): %w", i, phase.Name, err)
		}
		run, err := fw.RunModel(&Model{Scheme: schemeFor(fs), Bench: phase, Modules: moduleIDs, PMT: pmt}, budget)
		if err != nil {
			return nil, fmt.Errorf("core: phase %d (%s): %w", i, phase.Name, err)
		}
		res := run.Result
		pr := PhasedRun{
			Phase: i, Bench: phase.Name,
			Alpha: run.Alloc.Alpha, Freq: run.Alloc.Freq,
			Elapsed: res.Elapsed, Power: res.AvgTotalPower,
		}
		out.Phases = append(out.Phases, pr)
		out.Elapsed += res.Elapsed
		if res.AvgTotalPower > out.MaxPower {
			out.MaxPower = res.AvgTotalPower
		}
	}
	return out, nil
}
