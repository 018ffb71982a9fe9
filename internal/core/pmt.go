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
	return moduleClass.testPair(sys, bench, id)
}

// testPair runs bench on member id at the top and then the bottom of the
// class's clock ladder.
func (c *class) testPair(sys *cluster.System, bench *workload.Benchmark, id int) (TestPair, error) {
	lo, hi := c.ladder(sys)
	atMax, err := c.testRun(sys, bench, id, hi)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmax: %w", err)
	}
	atMin, err := c.testRun(sys, bench, id, lo)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmin: %w", err)
	}
	return TestPair{ModuleID: id, AtMax: atMax, AtMin: atMin}, nil
}

// Calibrate performs the paper's power model calibration (Section 5.2,
// Figure 6): divide the test module's measured powers by its PVT scales to
// estimate the system-wide averages, then multiply those averages by every
// target module's scales to predict its four parameters.
func Calibrate(pvt *PVT, test TestPair, bench *workload.Benchmark, moduleIDs []int) (*PMT, error) {
	avg, err := pvt.averages(test)
	if err != nil {
		return nil, fmt.Errorf("core: calibrate: test %w", err)
	}
	pmt := &PMT{Workload: bench.Name, Entries: make([]PMTEntry, len(moduleIDs))}
	for i, id := range moduleIDs {
		e := pvt.entry(id)
		if e == nil {
			_, err := pvt.Entry(id)
			return nil, fmt.Errorf("core: calibrate: %w", err)
		}
		pmt.Entries[i] = PMTEntry{
			ModuleID: id,
			CPUMax:   units.Watts(float64(avg.CPUMax) * e.CPUMax),
			DramMax:  units.Watts(float64(avg.DramMax) * e.DramMax),
			CPUMin:   units.Watts(float64(avg.CPUMin) * e.CPUMin),
			DramMin:  units.Watts(float64(avg.DramMin) * e.DramMin),
		}
	}
	return pmt, nil
}

// averages inverts the PVT at one measured module: the test pair divided
// by the module's scales is the population average the install-time sweep
// normalised against, for the workload the pair ran.
func (p *PVT) averages(test TestPair) (PMTEntry, error) {
	ref, err := p.Entry(test.ModuleID)
	if err != nil {
		return PMTEntry{}, err
	}
	return PMTEntry{
		CPUMax:  units.Watts(float64(test.AtMax.CPUPower) / ref.CPUMax),
		DramMax: units.Watts(float64(test.AtMax.DramPower) / ref.DramMax),
		CPUMin:  units.Watts(float64(test.AtMin.CPUPower) / ref.CPUMin),
		DramMin: units.Watts(float64(test.AtMin.DramPower) / ref.DramMin),
	}, nil
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
	return (&Framework{Sys: sys, Workers: workers}).oraclePMT(moduleClass, bench, moduleIDs)
}

// oraclePMT measures every allocated member of class c on the framework's
// system and width, in allocation order, with its span under fw.Trace. An
// allocation that lists a member twice is measured serially: that member's
// test runs reprogram its one governor or controller, in order.
func (fw *Framework) oraclePMT(c *class, bench *workload.Benchmark, ids []int) (*PMT, error) {
	span := fw.Trace.Start(c.oracleSpan)
	span.SetAttr("bench", bench.Name)
	span.SetInt(c.count, len(ids))
	defer span.End()
	workers := fw.Workers
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			workers = 1
			break
		}
		seen[id] = struct{}{}
	}
	entries, err := parallel.Map(workers, len(ids), func(i int) (PMTEntry, error) {
		pair, err := c.testPair(fw.Sys, bench, ids[i])
		if err != nil {
			return PMTEntry{}, fmt.Errorf("core: oracle PMT %s %d: %w", c.noun, ids[i], err)
		}
		return PMTEntry{
			ModuleID: ids[i],
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
	return moduleClass.naivePMT(sys, moduleIDs)
}

// naivePMT gives every allocated member the class's naive entry.
func (c *class) naivePMT(sys *cluster.System, ids []int) *PMT {
	e := c.naive(sys)
	pmt := &PMT{Workload: "(naive)", Entries: make([]PMTEntry, len(ids))}
	for i, id := range ids {
		e.ModuleID = id
		pmt.Entries[i] = e
	}
	return pmt
}
