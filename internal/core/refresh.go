// Incremental PVT refresh: the recalibration half of the continuous
// attribution loop (internal/attrib). The paper's PVT is generated once by
// a full install-time sweep; when the drift detector flags modules whose
// observed power departed from the table, re-sweeping the whole machine is
// exactly what a hot control plane cannot afford. RefreshPVT instead
// re-measures only the flagged modules — one test-run pair each, plus one
// pair on an unflagged reference module to recover the population averages
// — and splices the new entries into a copy of the live table.
//
// Refreshed entries are additionally *enforcement-aware*: on capping
// systems each flagged module runs a short capped probe (measure.
// CappedProbe) and its CPU scales are divided by the measured enforcement
// factor. A module whose hardware holds 1.2× the programmed limit then
// carries scales 1/1.2 of its natural ones, so the solver's α·pmax cap is
// programmed 1.2× lower and the *actual* draw lands on the allocation —
// the budget adheres even though the hardware still drifts.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"varpower/internal/cluster"
	"varpower/internal/measure"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Recalibration telemetry (the rest of the varpower_drift_* family lives
// in internal/attrib).
var (
	mRecalibrations = telemetry.Default().Counter("varpower_drift_recalibrations_total",
		"Incremental PVT refreshes triggered by the drift detector or the recalibrate endpoint.", nil)
	mRefreshedModules = telemetry.Default().Counter("varpower_drift_refreshed_modules_total",
		"Modules re-measured and spliced into a live PVT by incremental refresh.", nil)
)

// enfTolerance is the dead band on the measured enforcement factor: within
// it the module is considered faithful and its scales stay natural, so
// floating-point jitter never perturbs a healthy module's refreshed entry.
const enfTolerance = 0.02

// ModuleRefresh records one spliced entry.
type ModuleRefresh struct {
	Module int      `json:"module"`
	Old    PVTEntry `json:"old"`
	New    PVTEntry `json:"new"`
	// Enforcement is the measured cap-enforcement factor (1 = faithful;
	// folded into New's CPU scales when outside the tolerance band).
	Enforcement    float64 `json:"enforcement"`
	WasQuarantined bool    `json:"was_quarantined,omitempty"`
}

// RefreshReport summarises one incremental refresh.
type RefreshReport struct {
	System         string `json:"system"`
	Microbenchmark string `json:"microbenchmark"`
	// Reference is the unflagged module whose test pair anchored the
	// population averages.
	Reference int             `json:"reference"`
	Modules   []ModuleRefresh `json:"modules"`
}

// RefreshPVT re-measures the listed modules and splices the results into a
// copy of pvt (the input table is never mutated — callers swap the returned
// pointer in atomically). The cost is 1+len(modules) test-run pairs plus
// one short capped probe per module on capping systems — never a full
// sweep. Deterministic at any worker count: the fan-out is per-module and
// the splice order is ascending module ID.
func RefreshPVT(sys *cluster.System, pvt *PVT, modules []int, workers int) (*PVT, *RefreshReport, error) {
	if pvt == nil || len(pvt.Entries) == 0 {
		return nil, nil, fmt.Errorf("core: refresh needs a non-empty PVT")
	}
	if pvt.System != sys.Spec.Name {
		return nil, nil, fmt.Errorf("core: PVT is for %q, system is %q", pvt.System, sys.Spec.Name)
	}
	if len(modules) == 0 {
		return nil, nil, fmt.Errorf("core: refresh needs at least one module")
	}
	ids := slices.Clone(modules)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, id := range ids {
		if id < 0 || id >= sys.NumModules() {
			return nil, nil, fmt.Errorf("core: refresh module %d outside [0,%d)", id, sys.NumModules())
		}
	}

	micro, err := workload.ByName(pvt.Microbenchmark)
	if err != nil {
		micro = workload.PVTMicrobenchmark()
	}
	mRecalibrations.Inc()
	// A calibration sweep: timed, but in no trace.
	_, span := obs.StartSpan(context.Background(), "pvt.refresh")
	defer span.End()

	// The population averages the original sweep normalised against are
	// recovered as Calibrate recovers an application's: one test pair
	// divided by the measured module's scales, on the unflagged module
	// closest to the mean. Test runs are deterministic in (seed, module),
	// so the implied averages equal the install-time ones exactly and the
	// spliced entries stay on the original scale.
	others := make([]int, 0, len(pvt.Entries))
	for id := range pvt.Entries {
		if _, flagged := slices.BinarySearch(ids, id); !flagged {
			others = append(others, id)
		}
	}
	refID := -1
	if len(others) > 0 {
		refID = closestToMean(others, -1, pvt.deviation)
	}
	if refID < 0 || math.IsInf(pvt.deviation(refID), 1) {
		return nil, nil, fmt.Errorf("core: refresh has no healthy reference module (all %d flagged or quarantined)", len(pvt.Entries))
	}
	refPair, err := RunTestPair(sys, micro, refID)
	if err != nil {
		return nil, nil, fmt.Errorf("core: refresh reference module %d: %w", refID, err)
	}
	avg, err := pvt.averages(refPair)
	if err != nil {
		return nil, nil, err
	}
	if avg.CPUMax <= 0 || avg.CPUMin <= 0 || avg.DramMax <= 0 || avg.DramMin <= 0 {
		return nil, nil, fmt.Errorf("core: refresh reference module %d measured zero power", refID)
	}

	canCap := sys.Spec.Measurement.SupportsCapping()
	rows, err := parallel.Map(workers, len(ids), func(i int) (ModuleRefresh, error) {
		id := ids[i]
		old, err := pvt.Entry(id)
		if err != nil {
			return ModuleRefresh{}, err
		}
		pair, err := RunTestPair(sys, micro, id)
		if err != nil {
			return ModuleRefresh{}, fmt.Errorf("core: refresh module %d: %w", id, err)
		}
		hi, lo := pair.AtMax, pair.AtMin
		enf := 1.0
		if canCap {
			// Enforcement probe: a cap midway between the module's fmin and
			// fmax draws is guaranteed to bind, so the observed package
			// energy over cap-expected energy is the enforcement factor.
			probeCap := units.Watts((float64(hi.CPUPower) + float64(lo.CPUPower)) / 2)
			f, err := measure.CappedProbe(sys, micro, id, probeCap)
			if err != nil {
				return ModuleRefresh{}, fmt.Errorf("core: refresh enforcement probe on module %d: %w", id, err)
			}
			if f > 1+enfTolerance || f < 1-enfTolerance {
				enf = f
			}
		}
		return ModuleRefresh{
			Module: id, Old: old, Enforcement: enf,
			WasQuarantined: pvt.IsQuarantined(id),
			New: PVTEntry{
				ModuleID: id,
				CPUMax:   float64(hi.CPUPower) / float64(avg.CPUMax) / enf,
				DramMax:  float64(hi.DramPower) / float64(avg.DramMax),
				CPUMin:   float64(lo.CPUPower) / float64(avg.CPUMin) / enf,
				DramMin:  float64(lo.DramPower) / float64(avg.DramMin),
			},
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	next := &PVT{
		System:         pvt.System,
		Microbenchmark: pvt.Microbenchmark,
		Entries:        append([]PVTEntry(nil), pvt.Entries...),
	}
	refreshed := make(map[int]bool, len(ids))
	for _, row := range rows {
		next.Entries[row.Module] = row.New
		refreshed[row.Module] = true
	}
	// A refreshed module has a real measurement again; drop it from the
	// quarantine list so schedulers and calibration stop skipping it.
	for _, q := range pvt.Quarantined {
		if !refreshed[q] {
			next.Quarantined = append(next.Quarantined, q)
		}
	}
	mRefreshedModules.Add(float64(len(rows)))
	return next, &RefreshReport{
		System: pvt.System, Microbenchmark: micro.Name,
		Reference: refID, Modules: rows,
	}, nil
}

// Refresh re-measures the listed modules and splices the result into the
// framework's live PVT (see RefreshPVT). The swap is a pointer replacement:
// in-flight uses of the old table finish against a consistent snapshot.
func (fw *Framework) Refresh(modules []int) (*RefreshReport, error) {
	pvt, rep, err := RefreshPVT(fw.Sys, fw.PVT, modules, fw.Workers)
	if err != nil {
		return nil, err
	}
	fw.PVT = pvt
	return rep, nil
}
