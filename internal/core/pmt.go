package core

import (
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/measure"
	"varpower/internal/parallel"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// PMTEntry holds the four application-specific power parameters predicted
// (or measured) for one module: CPU and DRAM power at the maximum and
// minimum CPU frequencies (Section 5.2).
type PMTEntry struct {
	ModuleID int
	CPUMax   units.Watts
	DramMax  units.Watts
	CPUMin   units.Watts
	DramMin  units.Watts
}

// ModuleMax returns the module (CPU+DRAM) power at fmax.
func (e PMTEntry) ModuleMax() units.Watts { return e.CPUMax + e.DramMax }

// ModuleMin returns the module (CPU+DRAM) power at fmin.
func (e PMTEntry) ModuleMin() units.Watts { return e.CPUMin + e.DramMin }

// PMT is the application-dependent Power Model Table: one entry per module
// allocated to the application.
type PMT struct {
	Workload string
	Entries  []PMTEntry
}

// Averages returns the mean of each parameter across the table.
func (p *PMT) Averages() PMTEntry {
	var s PMTEntry
	if len(p.Entries) == 0 {
		return s
	}
	for _, e := range p.Entries {
		s.CPUMax += e.CPUMax
		s.DramMax += e.DramMax
		s.CPUMin += e.CPUMin
		s.DramMin += e.DramMin
	}
	n := units.Watts(float64(len(p.Entries)))
	return PMTEntry{CPUMax: s.CPUMax / n, DramMax: s.DramMax / n, CPUMin: s.CPUMin / n, DramMin: s.DramMin / n}
}

// Uniform returns a copy in which every module carries the table's average
// parameters — the variation-unaware but application-dependent model behind
// the paper's Pc scheme.
func (p *PMT) Uniform() *PMT {
	avg := p.Averages()
	out := &PMT{Workload: p.Workload, Entries: make([]PMTEntry, len(p.Entries))}
	for i, e := range p.Entries {
		avg.ModuleID = e.ModuleID
		out.Entries[i] = avg
	}
	return out
}

// TestPair is the result of the paper's two low-cost single-module test
// runs: measured powers at fmax and at fmin on one module.
type TestPair struct {
	ModuleID int
	AtMax    measure.TestRunResult
	AtMin    measure.TestRunResult
}

// RunTestPair executes the two single-module test runs on module id.
func RunTestPair(sys *cluster.System, bench *workload.Benchmark, id int) (TestPair, error) {
	arch := sys.Spec.Arch
	hi, err := measure.TestRun(sys, bench, id, arch.FNom)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmax: %w", err)
	}
	lo, err := measure.TestRun(sys, bench, id, arch.FMin)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmin: %w", err)
	}
	return TestPair{ModuleID: id, AtMax: hi, AtMin: lo}, nil
}

// Calibrate performs the paper's power model calibration (Section 5.2,
// Figure 6): divide the test module's measured powers by its PVT scales to
// estimate the system-wide averages, then multiply those averages by every
// target module's scales to predict its four parameters.
func Calibrate(pvt *PVT, test TestPair, bench *workload.Benchmark, moduleIDs []int) (*PMT, error) {
	ref, err := pvt.Entry(test.ModuleID)
	if err != nil {
		return nil, fmt.Errorf("core: calibrate: test %w", err)
	}
	avgCPUMax := float64(test.AtMax.CPUPower) / ref.CPUMax
	avgDramMax := float64(test.AtMax.DramPower) / ref.DramMax
	avgCPUMin := float64(test.AtMin.CPUPower) / ref.CPUMin
	avgDramMin := float64(test.AtMin.DramPower) / ref.DramMin

	pmt := &PMT{Workload: bench.Name, Entries: make([]PMTEntry, len(moduleIDs))}
	for i, id := range moduleIDs {
		e, err := pvt.Entry(id)
		if err != nil {
			return nil, fmt.Errorf("core: calibrate: %w", err)
		}
		pmt.Entries[i] = PMTEntry{
			ModuleID: id,
			CPUMax:   units.Watts(avgCPUMax * e.CPUMax),
			DramMax:  units.Watts(avgDramMax * e.DramMax),
			CPUMin:   units.Watts(avgCPUMin * e.CPUMin),
			DramMin:  units.Watts(avgDramMin * e.DramMin),
		}
	}
	return pmt, nil
}

// OraclePMT measures every allocated module directly — a complete execution
// of the application on all modules, the perfect calibration behind the
// paper's VaPcOr/VaFsOr baselines. Impractical in production (that is the
// point of the PVT), but it bounds how much accuracy calibration loses. The
// per-module measurement fans out over GOMAXPROCS workers; use
// OraclePMTWorkers for an explicit width.
func OraclePMT(sys *cluster.System, bench *workload.Benchmark, moduleIDs []int) (*PMT, error) {
	return OraclePMTWorkers(sys, bench, moduleIDs, 0)
}

// OraclePMTWorkers is OraclePMT with an explicit fan-out width (< 1 selects
// GOMAXPROCS, 1 is fully serial). Results are byte-identical for every
// worker count. Duplicate module IDs fall back to the serial loop — their
// test runs reprogram the shared governor in order.
func OraclePMTWorkers(sys *cluster.System, bench *workload.Benchmark, moduleIDs []int, workers int) (*PMT, error) {
	return (&Framework{Sys: sys, Workers: workers}).oraclePMT(bench, moduleIDs)
}

// oraclePMT is OraclePMTWorkers on the framework's system and width, with
// its span under fw.Trace.
func (fw *Framework) oraclePMT(bench *workload.Benchmark, moduleIDs []int) (*PMT, error) {
	span := fw.Trace.Start("pmt.oracle")
	span.SetAttr("bench", bench.Name)
	span.SetInt("modules", len(moduleIDs))
	defer span.End()
	workers := fw.Workers
	if hasDuplicates(moduleIDs) {
		workers = 1
	}
	entries, err := parallel.Map(workers, len(moduleIDs), func(i int) (PMTEntry, error) {
		id := moduleIDs[i]
		pair, err := RunTestPair(fw.Sys, bench, id)
		if err != nil {
			return PMTEntry{}, fmt.Errorf("core: oracle PMT module %d: %w", id, err)
		}
		return PMTEntry{
			ModuleID: id,
			CPUMax:   pair.AtMax.CPUPower,
			DramMax:  pair.AtMax.DramPower,
			CPUMin:   pair.AtMin.CPUPower,
			DramMin:  pair.AtMin.DramPower,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &PMT{Workload: bench.Name, Entries: entries}, nil
}

// hasDuplicates reports whether the allocation lists any module twice.
func hasDuplicates(ids []int) bool {
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return true
		}
		seen[id] = struct{}{}
	}
	return false
}

// Naive model constants (Section 6): the variation-unaware scheme takes
// Pcpu_max/Pdram_max from the architecture's TDP values and uses the
// empirically observed degradation threshold of 40 W CPU / 10 W DRAM as the
// minimum-frequency powers. The thresholds are HA8K numbers; other
// architectures scale by TDP ratio.
const (
	naiveCPUMinRef  = 40.0
	naiveDramMinRef = 10.0
	naiveRefTDP     = 130.0
	naiveRefDram    = 62.0
)

// NaivePMT builds the application-independent, variation-unaware model: TDP
// at fmax and the fixed empirical thresholds at fmin, identical for every
// module.
func NaivePMT(sys *cluster.System, moduleIDs []int) *PMT {
	arch := sys.Spec.Arch
	e := PMTEntry{
		CPUMax:  arch.TDP,
		DramMax: arch.DramTDP,
		CPUMin:  units.Watts(naiveCPUMinRef * float64(arch.TDP) / naiveRefTDP),
		DramMin: units.Watts(naiveDramMinRef * float64(arch.DramTDP) / naiveRefDram),
	}
	pmt := &PMT{Workload: "(naive)", Entries: make([]PMTEntry, len(moduleIDs))}
	for i, id := range moduleIDs {
		e.ModuleID = id
		pmt.Entries[i] = e
	}
	return pmt
}
