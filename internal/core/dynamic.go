package core

import (
	"fmt"

	"varpower/internal/measure"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// This file implements the paper's first future-work item (Section 7):
// dynamic reallocation of power *within* an application. The static
// framework fixes α from the pre-run calibration; when the calibrated PMT
// is off (NPB-BT's ~10% error), the chosen caps are off for the whole run.
//
// The dynamic budgeter splits the run into epochs. After each epoch it
// reads the per-module powers actually delivered (from the RAPL energy
// counters, exactly as a runtime system would), rescales each module's PMT
// entry by measured/predicted, re-solves for α under the same budget, and
// re-applies the caps. Calibration error is thus corrected out of the loop
// after the first epoch, converging the run toward the oracle schemes'
// operating point without any oracle knowledge.

// EpochStats records one epoch of a dynamic run.
type EpochStats struct {
	Epoch   int
	Alpha   float64
	Freq    units.Hertz
	Elapsed units.Seconds
	// MeasuredPower is the epoch's average total power.
	MeasuredPower units.Watts
	// ModelError is the mean relative gap between the PMT's predicted
	// module power at this epoch's α and the measured module power —
	// the quantity the feedback loop drives toward zero.
	ModelError float64
}

// DynamicResult is the outcome of a dynamic-budgeting run.
type DynamicResult struct {
	Bench  string
	Budget units.Watts
	Epochs []EpochStats
	// Elapsed is the summed epoch time — the application's total runtime.
	Elapsed units.Seconds
	// FinalPMT is the feedback-corrected model after the last epoch.
	FinalPMT *PMT
}

// RunDynamic executes bench under budget with epoch-wise model feedback.
// Each epoch runs through RunModel as VaPc (RAPL caps) when fs is false,
// VaFs (a pinned frequency) when true; calibration starts from the standard
// single-module PVT path (the same starting point as VaPc/VaFs) and
// improves itself from measurement.
func (fw *Framework) RunDynamic(bench *workload.Benchmark, moduleIDs []int, budget units.Watts, epochs int, fs bool) (*DynamicResult, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("core: dynamic run needs ≥ 1 epoch, got %d", epochs)
	}
	if bench.Iterations < epochs {
		return nil, fmt.Errorf("core: %s has %d iterations, cannot split into %d epochs",
			bench.Name, bench.Iterations, epochs)
	}
	pmt, err := fw.calibrated(bench, moduleIDs)
	if err != nil {
		return nil, err
	}

	out := &DynamicResult{Bench: bench.Name, Budget: budget}
	perEpoch := bench.Iterations / epochs
	remainder := bench.Iterations - perEpoch*epochs

	for e := 0; e < epochs; e++ {
		epochBench := *bench
		epochBench.Iterations = perEpoch
		if e == epochs-1 {
			epochBench.Iterations += remainder
		}
		run, err := fw.RunModel(&Model{Scheme: schemeFor(fs), Bench: &epochBench, Modules: moduleIDs, PMT: pmt}, budget)
		if err != nil {
			return nil, err
		}
		res := run.Result

		stats := EpochStats{
			Epoch: e, Alpha: run.Alloc.Alpha, Freq: run.Alloc.Freq,
			Elapsed:       res.Elapsed,
			MeasuredPower: res.AvgTotalPower,
		}
		stats.ModelError = fw.feedback(pmt, res)
		out.Epochs = append(out.Epochs, stats)
		out.Elapsed += res.Elapsed
	}
	out.FinalPMT = pmt
	return out, nil
}

// feedback rescales the PMT in place from an epoch's measurements and
// returns the pre-correction mean relative model error.
//
// The comparison is made at each module's *delivered* frequency (read back
// from IA32_PERF_STATUS in a real deployment): under a binding RAPL cap
// the delivered power equals the cap by construction, so comparing at the
// target α would hide under-predictions; at the delivered frequency the
// (power, frequency) pair lies on the module's true curve and the
// model/measurement ratio isolates the calibration error. The ratio
// corrects the whole entry — a multiplicative residual (the dominant error
// term, see variability.Residual) scales min and max alike.
func (fw *Framework) feedback(pmt *PMT, res measure.Result) float64 {
	arch := fw.Sys.Spec.Arch
	var errSum float64
	var n int
	for i, rank := range res.Ranks {
		e := &pmt.Entries[i]
		// α implied by the delivered frequency (may extrapolate slightly
		// past [0,1] under turbo or throttling; the model is affine, so
		// extrapolation is exact).
		alphaDel := units.InvLerp(float64(arch.FMin), float64(arch.FNom), float64(rank.Op.Freq))
		predCPU := units.Lerp(float64(e.CPUMin), float64(e.CPUMax), alphaDel)
		predDram := units.Lerp(float64(e.DramMin), float64(e.DramMax), alphaDel)
		measCPU := float64(rank.Op.CPUPower)
		measDram := float64(rank.Op.DramPower)
		if predCPU > 0 && measCPU > 0 {
			r := measCPU / predCPU
			errSum += abs1(r)
			n++
			e.CPUMax = units.Watts(float64(e.CPUMax) * r)
			e.CPUMin = units.Watts(float64(e.CPUMin) * r)
		}
		if predDram > 0 && measDram > 0 {
			r := measDram / predDram
			e.DramMax = units.Watts(float64(e.DramMax) * r)
			e.DramMin = units.Watts(float64(e.DramMin) * r)
		}
	}
	if n == 0 {
		return 0
	}
	return errSum / float64(n)
}

func abs1(r float64) float64 {
	if r < 1 {
		return 1 - r
	}
	return r - 1
}
