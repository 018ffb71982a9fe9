package core

import (
	"fmt"
	"math"

	"varpower/internal/cluster"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// This file implements the accuracy improvement the paper proposes in
// Section 6.1: "An approach to improve the prediction accuracy is to use
// micro-benchmarks with different characteristics to generate several
// PVTs, and then choose a suitable PVT based on the test runs."
//
// A PVTLibrary holds one PVT per probe microbenchmark. For a new
// application, the framework runs the usual two test runs on a *pair* of
// modules instead of one: the first module calibrates a candidate PMT per
// PVT, and the second acts as a held-out validation point — the library
// selects the PVT whose calibrated model predicts the held-out module's
// measured power best. The extra cost over single-PVT calibration is one
// additional single-module test pair, preserving the paper's low-cost
// property.

// PVTLibrary is a set of PVTs generated from microbenchmarks with
// different power characteristics.
type PVTLibrary struct {
	System string
	PVTs   []*PVT
}

// DefaultProbes are the probe microbenchmarks for library generation:
// *STREAM (the paper's original choice, memory + static heavy), *DGEMM
// (dynamic-power heavy) and NPB-EP (cache-resident, almost pure dynamic).
// Together they span the static/dynamic mix axis that drives calibration
// error.
func DefaultProbes() []*workload.Benchmark {
	return []*workload.Benchmark{workload.StarSTREAM(), workload.DGEMM(), workload.EP()}
}

// GeneratePVTLibrary builds one PVT per probe. Like GeneratePVT this is an
// install-time step.
func GeneratePVTLibrary(sys *cluster.System, probes []*workload.Benchmark) (*PVTLibrary, error) {
	if len(probes) == 0 {
		probes = DefaultProbes()
	}
	lib := &PVTLibrary{System: sys.Spec.Name}
	for _, p := range probes {
		pvt, err := GeneratePVT(sys, p)
		if err != nil {
			return nil, fmt.Errorf("core: PVT library probe %s: %w", p.Name, err)
		}
		lib.PVTs = append(lib.PVTs, pvt)
	}
	return lib, nil
}

// Selection records which PVT the library chose for an application and
// the held-out validation error of every candidate.
type Selection struct {
	Chosen *PVT
	// Errors maps microbenchmark name → relative prediction error of the
	// held-out module's measured fmax/fmin module power.
	Errors map[string]float64
	// TestModule and HoldoutModule are the two modules used.
	TestModule    int
	HoldoutModule int
}

// SelectAndCalibrate performs multi-PVT calibration for the application:
// test runs on moduleIDs[0] (calibration) and moduleIDs[1] (held-out
// validation), PVT selection by validation error, and the final PMT from
// the winning PVT. At least two allocated modules are required.
func (lib *PVTLibrary) SelectAndCalibrate(sys *cluster.System, bench *workload.Benchmark, moduleIDs []int) (*PMT, *Selection, error) {
	if len(lib.PVTs) == 0 {
		return nil, nil, fmt.Errorf("core: empty PVT library")
	}
	if len(moduleIDs) < 2 {
		return nil, nil, fmt.Errorf("core: multi-PVT calibration needs ≥ 2 modules, have %d", len(moduleIDs))
	}
	testID, holdID := moduleIDs[0], moduleIDs[1]
	testPair, err := RunTestPair(sys, bench, testID)
	if err != nil {
		return nil, nil, err
	}
	holdPair, err := RunTestPair(sys, bench, holdID)
	if err != nil {
		return nil, nil, err
	}

	sel := &Selection{
		Errors:        make(map[string]float64),
		TestModule:    testID,
		HoldoutModule: holdID,
	}
	var best *PVT
	bestErr := math.Inf(1)
	for _, pvt := range lib.PVTs {
		pmt, err := Calibrate(pvt, testPair, bench, []int{holdID})
		if err != nil {
			return nil, nil, fmt.Errorf("core: candidate %s: %w", pvt.Microbenchmark, err)
		}
		e := holdoutError(pmt.Entries[0], holdPair)
		sel.Errors[pvt.Microbenchmark] = e
		if e < bestErr {
			bestErr = e
			best = pvt
		}
	}
	sel.Chosen = best

	pmt, err := Calibrate(best, testPair, bench, moduleIDs)
	if err != nil {
		return nil, nil, err
	}
	return pmt, sel, nil
}

// holdoutError scores a predicted entry against the held-out module's
// measured powers: the mean relative error of module power at fmax and
// fmin.
func holdoutError(pred PMTEntry, measured TestPair) float64 {
	eMax := relErr(float64(pred.ModuleMax()), float64(measured.AtMax.ModulePower()))
	eMin := relErr(float64(pred.ModuleMin()), float64(measured.AtMin.ModulePower()))
	return (eMax + eMin) / 2
}

func relErr(pred, act float64) float64 {
	if act == 0 {
		return 0
	}
	return math.Abs(pred-act) / math.Abs(act)
}

// RunMultiPVT executes the full pipeline like Framework.Run but with
// library-based calibration, using the given enforcement (PC when fs is
// false, FS when true).
func (fw *Framework) RunMultiPVT(lib *PVTLibrary, bench *workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool) (*SchemeRun, *Selection, error) {
	pmt, sel, err := lib.SelectAndCalibrate(fw.Sys, bench, moduleIDs)
	if err != nil {
		return nil, nil, err
	}
	run, err := fw.RunModel(&Model{Scheme: schemeFor(fs), Bench: bench, Modules: moduleIDs, PMT: pmt}, budget)
	if err != nil {
		return nil, nil, err
	}
	return run, sel, nil
}
