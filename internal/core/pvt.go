// Package core implements the paper's contribution: variation-aware power
// budgeting (Section 5). The pipeline, mirroring Figure 4:
//
//  1. a Power Variation Table (PVT) is generated once per system by running
//     a microbenchmark (*STREAM) on every module at the maximum and minimum
//     CPU frequencies (pvt.go);
//  2. a new application is instrumented with power measurement and
//     management directives (pmmd.go) and test-run on a single module at
//     fmax and fmin (runner.go);
//  3. the test measurements are calibrated against the PVT into an
//     application-dependent Power Model Table (PMT) covering all modules
//     (pmt.go);
//  4. a single application-wide coefficient α is chosen so the summed
//     per-module linear power models meet the global budget, and each
//     module receives its own allocation (budget.go, Equations 1–9);
//  5. the allocation is enforced by RAPL power capping (PC) or frequency
//     selection (FS) for the final run (schemes.go, runner.go).
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/measure"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/workload"
)

// PVTEntry stores one module's variation scales: its measured power divided
// by the system-wide average, for CPU and DRAM at the maximum and minimum
// CPU frequencies (the paper's Figure 6, left table).
type PVTEntry struct {
	ModuleID int     `json:"module"`
	CPUMax   float64 `json:"cpu_max"`
	DramMax  float64 `json:"dram_max"`
	CPUMin   float64 `json:"cpu_min"`
	DramMin  float64 `json:"dram_min"`
}

// PVT is the application-independent, system-level Power Variation Table.
// It is generated once, when the system is installed, and reused for every
// application (Section 5.2).
type PVT struct {
	System         string     `json:"system"`
	Microbenchmark string     `json:"microbenchmark"`
	Entries        []PVTEntry `json:"entries"`

	// Quarantined lists modules whose install-time measurements failed
	// persistently or fell outside the robust population statistics (MAD
	// outlier rejection); their entries carry neutral scales and are
	// excluded from the population averages. Empty on a healthy system.
	Quarantined []int `json:"quarantined,omitempty"`
}

// IsQuarantined reports whether a module's PVT entry is a quarantine
// placeholder rather than a measurement.
func (p *PVT) IsQuarantined(moduleID int) bool {
	for _, id := range p.Quarantined {
		if id == moduleID {
			return true
		}
	}
	return false
}

// deviation is a module's distance from the population mean (see
// PVTEntry.deviation), +Inf for quarantined or unknown modules: their
// placeholder scales of exactly 1.0 are deceptively "closest to the mean".
func (p *PVT) deviation(moduleID int) float64 {
	e, err := p.Entry(moduleID)
	if err != nil || p.IsQuarantined(moduleID) {
		return math.Inf(1)
	}
	return e.deviation()
}

// deviation is the L1 distance of the entry's scales from the population
// mean of 1, DRAM weighted a quarter.
func (e PVTEntry) deviation() float64 {
	return math.Abs(e.CPUMax-1) + math.Abs(e.CPUMin-1) +
		0.25*(math.Abs(e.DramMax-1)+math.Abs(e.DramMin-1))
}

// Entry returns the scales for a module ID.
func (p *PVT) Entry(moduleID int) (PVTEntry, error) {
	if moduleID < 0 || moduleID >= len(p.Entries) {
		return PVTEntry{}, fmt.Errorf("core: module %d not in PVT (%d entries)", moduleID, len(p.Entries))
	}
	e := p.Entries[moduleID]
	if e.ModuleID != moduleID {
		// Defensive: entries are indexed by ID at generation time.
		for _, cand := range p.Entries {
			if cand.ModuleID == moduleID {
				return cand, nil
			}
		}
		return PVTEntry{}, fmt.Errorf("core: module %d missing from PVT", moduleID)
	}
	return e, nil
}

// GeneratePVT builds the table by test-running the microbenchmark on every
// module of the system at fmax (nominal) and fmin, then normalising each
// measurement by the population average. This is the install-time step; its
// cost never recurs during budgeting. The per-module test runs fan out over
// GOMAXPROCS workers; use GeneratePVTWorkers for an explicit width.
func GeneratePVT(sys *cluster.System, micro *workload.Benchmark) (*PVT, error) {
	return GeneratePVTWorkers(sys, micro, 0)
}

// GeneratePVTWorkers is GeneratePVT with an explicit fan-out width
// (< 1 selects GOMAXPROCS, 1 is fully serial). Each module's two test runs
// touch only that module's governor, controller and MSR device, and every
// random draw comes from a (seed, moduleID, ...)-keyed stream, so the table
// is byte-identical for every worker count.
func GeneratePVTWorkers(sys *cluster.System, micro *workload.Benchmark, workers int) (*PVT, error) {
	return GeneratePVTCtx(context.Background(), sys, micro, workers)
}

// GeneratePVTCtx is GeneratePVTWorkers with context cancellation; a
// progress callback attached via parallel.WithProgress receives per-module
// completion updates (the install-time sweep over a full machine is the
// longest single phase in the repository).
func GeneratePVTCtx(ctx context.Context, sys *cluster.System, micro *workload.Benchmark, workers int) (*PVT, error) {
	if micro == nil {
		micro = workload.PVTMicrobenchmark()
	}
	_, span := obs.StartSpan(ctx, "pvt.generate")
	span.SetAttr("system", sys.Spec.Name)
	span.SetInt("modules", sys.NumModules())
	defer span.End()
	arch := sys.Spec.Arch
	n := sys.NumModules()
	in := sys.Faults()
	type raw struct {
		cpuMax, dramMax, cpuMin, dramMin float64
		quarantined                      bool
	}
	raws, err := parallel.MapCtx(ctx, workers, n, func(_ context.Context, id int) (raw, error) {
		attempts := 1
		if in != nil {
			// Faulty hardware: retry the test-run pair before giving up on
			// the module, then quarantine instead of failing the install.
			attempts = 1 + pvtRetries
		}
		var lastErr error
		for a := 0; a < attempts; a++ {
			if a > 0 {
				faults.MetricRetried.Inc()
			}
			hi, err := measure.TestRun(sys, micro, id, arch.FNom)
			if err != nil {
				lastErr = fmt.Errorf("core: PVT fmax run on module %d: %w", id, err)
				continue
			}
			lo, err := measure.TestRun(sys, micro, id, arch.FMin)
			if err != nil {
				lastErr = fmt.Errorf("core: PVT fmin run on module %d: %w", id, err)
				continue
			}
			return raw{
				cpuMax: float64(hi.CPUPower), dramMax: float64(hi.DramPower),
				cpuMin: float64(lo.CPUPower), dramMin: float64(lo.DramPower),
			}, nil
		}
		if in != nil {
			return raw{quarantined: true}, nil
		}
		return raw{}, lastErr
	})
	if err != nil {
		return nil, err
	}
	quar := make([]bool, n)
	for id := 0; id < n; id++ {
		quar[id] = raws[id].quarantined
	}
	if in != nil {
		// MAD outlier rejection over each of the four metrics: a module
		// whose measurement is wildly off-population (a spiked or stuck
		// counter that still produced numbers) degrades its own entry
		// instead of corrupting everyone's normalisation. Only runs under
		// fault injection so a healthy install keeps its exact statistics.
		for _, get := range []func(raw) float64{
			func(r raw) float64 { return r.cpuMax },
			func(r raw) float64 { return r.dramMax },
			func(r raw) float64 { return r.cpuMin },
			func(r raw) float64 { return r.dramMin },
		} {
			idx := make([]int, 0, n)
			vals := make([]float64, 0, n)
			for id := 0; id < n; id++ {
				if quar[id] {
					continue
				}
				idx = append(idx, id)
				vals = append(vals, get(raws[id]))
			}
			for _, i := range faults.Outliers(vals, 0) {
				quar[idx[i]] = true
			}
		}
	}
	// Population averages are reduced in module order after the fan-out so
	// the float sums are bit-identical for every worker count.
	var sum raw
	kept := 0
	var quarantined []int
	for id := 0; id < n; id++ {
		if quar[id] {
			quarantined = append(quarantined, id)
			continue
		}
		sum.cpuMax += raws[id].cpuMax
		sum.dramMax += raws[id].dramMax
		sum.cpuMin += raws[id].cpuMin
		sum.dramMin += raws[id].dramMin
		kept++
	}
	if kept == 0 {
		return nil, fmt.Errorf("core: PVT generation quarantined every module")
	}
	for range quarantined {
		faults.MetricQuarantined.Inc()
	}
	avg := raw{
		cpuMax: sum.cpuMax / float64(kept), dramMax: sum.dramMax / float64(kept),
		cpuMin: sum.cpuMin / float64(kept), dramMin: sum.dramMin / float64(kept),
	}
	if avg.cpuMax == 0 || avg.cpuMin == 0 || avg.dramMax == 0 || avg.dramMin == 0 {
		return nil, fmt.Errorf("core: PVT generation measured zero average power")
	}
	pvt := &PVT{
		System: sys.Spec.Name, Microbenchmark: micro.Name,
		Entries: make([]PVTEntry, n), Quarantined: quarantined,
	}
	for id := 0; id < n; id++ {
		if quar[id] {
			// Neutral placeholder: the module is treated as exactly average
			// if a job lands on it, and reported so schedulers can avoid it.
			pvt.Entries[id] = PVTEntry{ModuleID: id, CPUMax: 1, DramMax: 1, CPUMin: 1, DramMin: 1}
			continue
		}
		pvt.Entries[id] = PVTEntry{
			ModuleID: id,
			CPUMax:   raws[id].cpuMax / avg.cpuMax,
			DramMax:  raws[id].dramMax / avg.dramMax,
			CPUMin:   raws[id].cpuMin / avg.cpuMin,
			DramMin:  raws[id].dramMin / avg.dramMin,
		}
	}
	return pvt, nil
}

// pvtRetries bounds the extra test-run attempts per module during a faulty
// install before the module is quarantined.
const pvtRetries = 2

// Save serialises the PVT as JSON (the on-disk form a production system
// would keep from install time).
func (p *PVT) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadPVT deserialises a PVT written by Save and validates its shape.
func LoadPVT(r io.Reader) (*PVT, error) {
	var p PVT
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: load PVT: %w", err)
	}
	if len(p.Entries) == 0 {
		return nil, fmt.Errorf("core: load PVT: no entries")
	}
	for i, e := range p.Entries {
		if e.CPUMax <= 0 || e.CPUMin <= 0 || e.DramMax <= 0 || e.DramMin <= 0 {
			return nil, fmt.Errorf("core: load PVT: non-positive scale in entry %d", i)
		}
	}
	return &p, nil
}
