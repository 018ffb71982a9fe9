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
	"slices"
	"sync"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/measure"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/telemetry"
	"varpower/internal/units"
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
func (p *PVT) IsQuarantined(moduleID int) bool { return slices.Contains(p.Quarantined, moduleID) }

// deviation is a module's L1 distance from the population mean of 1 in PVT
// scales, DRAM weighted a quarter; +Inf for quarantined or unknown modules,
// whose placeholder scales of exactly 1.0 are deceptively "closest to the
// mean". A GPU device's DRAM scales are 1, so its term is exactly 0.
func (p *PVT) deviation(moduleID int) float64 {
	e := p.entry(moduleID)
	if e == nil || p.IsQuarantined(moduleID) {
		return math.Inf(1)
	}
	return math.Abs(e.CPUMax-1) + math.Abs(e.CPUMin-1) +
		0.25*(math.Abs(e.DramMax-1)+math.Abs(e.DramMin-1))
}

// Entry returns the scales for a module ID.
func (p *PVT) Entry(moduleID int) (PVTEntry, error) {
	if e := p.entry(moduleID); e != nil {
		return *e, nil
	}
	if moduleID < 0 || moduleID >= len(p.Entries) {
		return PVTEntry{}, fmt.Errorf("core: module %d not in PVT (%d entries)", moduleID, len(p.Entries))
	}
	return PVTEntry{}, fmt.Errorf("core: module %d missing from PVT", moduleID)
}

// entry is Entry by pointer, nil for an unknown module. Entries are
// indexed by ID at generation time, so the lookup is one bounds check; a
// table whose entries are not (a hand-edited file) is searched.
func (p *PVT) entry(moduleID int) *PVTEntry {
	if moduleID >= 0 && moduleID < len(p.Entries) && p.Entries[moduleID].ModuleID == moduleID {
		return &p.Entries[moduleID]
	}
	return p.search(moduleID)
}

// search is entry's slow path: a scan of a table not indexed by ID.
func (p *PVT) search(moduleID int) *PVTEntry {
	if moduleID < 0 || moduleID >= len(p.Entries) {
		return nil
	}
	for i := range p.Entries {
		if p.Entries[i].ModuleID == moduleID {
			return &p.Entries[i]
		}
	}
	return nil
}

// class describes one device class to the table pipeline: the install-time
// sweep, the PMT measurement and the VaFs hold-out margin take one, and the
// α-solve reads its clock ladder. A module has two measured channels, CPU
// and DRAM. A GPU device has one, board power, which the tables carry in
// their capped (CPU) fields with DRAM power 0 and DRAM scale 1; every sum,
// ratio, Lerp and hold-out error over a device entry is then exactly its
// one-channel value (x+0 = x, 0/1 = 0, Lerp(0, 0, α) = 0).
type class struct {
	noun       string // member noun in errors
	count      string // span attribute counting the members
	pvtSpan    string // span of the install-time sweep
	oracleSpan string // span of the oracle measurement
	dram       bool   // members have a DRAM channel
	// ladder returns the clock ladder's ends: the P-state range for
	// modules, the SM-clock range for devices.
	ladder func(spec cluster.Spec) (lo, hi units.Hertz)
	// naive is the variation-unaware, application-independent entry.
	naive func(sys *cluster.System) PMTEntry
	// pairs returns the measurement of bench's test pairs on sys's
	// members, at the ladder's ends hi and then lo (see tester).
	pairs func(sys *cluster.System, bench *workload.Benchmark, lo, hi units.Hertz) pairFunc
	// table is the class's install-time PVT on fw.
	table func(fw *Framework) *PVT
}

// pairFunc measures member id's test pair — its runs at the top and then
// the bottom of the class's clock ladder — recording the runs' metric
// writes into b.
type pairFunc func(id int, b *telemetry.Batch) (TestPair, error)

// tester returns the measurement of bench's test pairs on sys's members
// of class c, at the ends of the class's clock ladder.
func (c *class) tester(sys *cluster.System, bench *workload.Benchmark) pairFunc {
	lo, hi := c.ladder(sys.Spec)
	return c.pairs(sys, bench, lo, hi)
}

// moduleClass is the paper's: CPU+DRAM modules on the P-state ladder.
var moduleClass = &class{
	noun: "module", count: "modules", pvtSpan: "pvt.generate", oracleSpan: "pmt.oracle", dram: true,
	ladder: func(spec cluster.Spec) (units.Hertz, units.Hertz) {
		return spec.Arch.FMin, spec.Arch.FNom
	},
	naive: func(sys *cluster.System) PMTEntry {
		arch := sys.Spec.Arch
		return PMTEntry{
			CPUMax:  arch.TDP,
			DramMax: arch.DramTDP,
			CPUMin:  units.Watts(naiveCPUMinRef * float64(arch.TDP) / naiveRefTDP),
			DramMin: units.Watts(naiveDramMinRef * float64(arch.DramTDP) / naiveRefDram),
		}
	},
	pairs: modulePairs,
	table: func(fw *Framework) *PVT { return fw.PVT },
}

// modulePairs measures modules' test pairs with one measure.Tester of
// bench, which builds the one-rank program once for every module and draws
// each module's residual and run noise once for both of its runs. A bench
// the tester refuses fails every pair, as its first run would.
func modulePairs(sys *cluster.System, bench *workload.Benchmark, lo, hi units.Hertz) pairFunc {
	t, terr := measure.NewTester(sys, bench)
	return func(id int, b *telemetry.Batch) (TestPair, error) {
		if terr != nil {
			return TestPair{}, fmt.Errorf("core: test run at fmax: %w", terr)
		}
		m, err := t.Member(id)
		if err != nil {
			return TestPair{}, fmt.Errorf("core: test run at fmax: %w", err)
		}
		return pairAt(id, hi, lo, func(f units.Hertz) (measure.TestRunResult, error) {
			return t.Run(m, f, b)
		})
	}
}

// pairAt makes member id's test pair from run at hi and then at lo.
func pairAt(id int, hi, lo units.Hertz, run func(f units.Hertz) (measure.TestRunResult, error)) (TestPair, error) {
	atMax, err := run(hi)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmax: %w", err)
	}
	atMin, err := run(lo)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmin: %w", err)
	}
	return TestPair{ModuleID: id, AtMax: atMax, AtMin: atMin}, nil
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
// progress callback attached via parallel.WithProgress receives an update
// per completed chunk of modules (see chunk), out of the sweep's chunk
// count (the install-time sweep over a full machine is the longest single
// phase in the repository). Cancellation, too, takes effect between
// chunks.
func GeneratePVTCtx(ctx context.Context, sys *cluster.System, micro *workload.Benchmark, workers int) (*PVT, error) {
	return moduleClass.generate(ctx, sys, sys.NumModules(), micro, workers)
}

// generate builds the class's install-time table over its n members: the
// microbenchmark's test pair on each through sweep, one channel per
// measured power.
func (c *class) generate(ctx context.Context, sys *cluster.System, n int, micro *workload.Benchmark, workers int) (*PVT, error) {
	if micro == nil {
		micro = workload.PVTMicrobenchmark()
	}
	_, span := obs.StartSpan(ctx, c.pvtSpan)
	span.SetAttr("system", sys.Spec.Name)
	span.SetInt(c.count, n)
	defer span.End()
	channels := 2
	if c.dram {
		channels = 4
	}
	pairs := c.tester(sys, micro)
	scales, quarantined, err := sweep(ctx, sys, n, channels, workers, func(id int, v []float64, b *telemetry.Batch) error {
		pair, err := pairs(id, b)
		if err != nil {
			return fmt.Errorf("core: PVT test pair on %s %d: %w", c.noun, id, err)
		}
		if c.dram {
			v[0], v[1] = float64(pair.AtMax.CPUPower), float64(pair.AtMax.DramPower)
			v[2], v[3] = float64(pair.AtMin.CPUPower), float64(pair.AtMin.DramPower)
		} else {
			v[0], v[1] = float64(pair.AtMax.CPUPower), float64(pair.AtMin.CPUPower)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pvt := &PVT{
		System: sys.Spec.Name, Microbenchmark: micro.Name,
		Entries: make([]PVTEntry, n), Quarantined: quarantined,
	}
	for id := range pvt.Entries {
		s := scales[channels*id:]
		if c.dram {
			pvt.Entries[id] = PVTEntry{ModuleID: id, CPUMax: s[0], DramMax: s[1], CPUMin: s[2], DramMin: s[3]}
		} else {
			pvt.Entries[id] = PVTEntry{ModuleID: id, CPUMax: s[0], DramMax: 1, CPUMin: s[1], DramMin: 1}
		}
	}
	return pvt, nil
}

// sweep is the install-time calibration every PVT is built by, for every
// class: it fans out each of the n members' test pair in chunks
// (forChunks; test fills one value per channel and records its runs'
// metric writes into its chunk's batch), normalises every channel by its
// population average, and returns the scales member-major with the
// quarantine list. Every member's test runs touch only that member and
// draw from (seed, id)-keyed streams, and the averages are reduced in
// member order after the fan-out, so the scales are bit-identical for
// every worker count.
//
// On faulty hardware a failing pair is retried, then its member is
// quarantined instead of failing the install, and a MAD pass over each
// channel in turn (skipping members already quarantined) quarantines the
// members whose measurement is wildly off-population — a spiked or stuck
// counter that still produced numbers — so one degrades its own entry
// instead of corrupting everyone's normalisation. A healthy install keeps
// its exact statistics. Quarantined members are left out of the averages
// and carry neutral scales of 1: exactly average if a job lands on one,
// and reported so schedulers can avoid it.
func sweep(ctx context.Context, sys *cluster.System, n, channels, workers int, test func(id int, v []float64, b *telemetry.Batch) error) ([]float64, []int, error) {
	in := sys.Faults()
	vals := make([]float64, n*channels)
	quar := make([]bool, n)
	err := forChunks(ctx, workers, n, nil, func(id int, b *telemetry.Batch) error {
		attempts := 1
		if in != nil {
			attempts = 1 + pvtRetries
		}
		var err error
		for a := 0; a < attempts; a++ {
			if a > 0 {
				faults.MetricRetried.Inc()
			}
			if err = test(id, vals[id*channels:(id+1)*channels], b); err == nil {
				return nil
			}
		}
		if in != nil {
			quar[id] = true
			return nil
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if in != nil {
		idx := make([]int, 0, n)
		col := make([]float64, 0, n)
		for c := 0; c < channels; c++ {
			idx, col = idx[:0], col[:0]
			for id := 0; id < n; id++ {
				if !quar[id] {
					idx = append(idx, id)
					col = append(col, vals[id*channels+c])
				}
			}
			for _, i := range faults.Outliers(col, 0) {
				quar[idx[i]] = true
			}
		}
	}
	avg := make([]float64, channels)
	kept := 0
	var quarantined []int
	for id := 0; id < n; id++ {
		if quar[id] {
			quarantined = append(quarantined, id)
			continue
		}
		for c := range avg {
			avg[c] += vals[id*channels+c]
		}
		kept++
	}
	if kept == 0 {
		return nil, nil, fmt.Errorf("core: calibration sweep quarantined every member of %s", sys.Spec.Name)
	}
	faults.MetricQuarantined.Add(float64(len(quarantined)))
	for c := range avg {
		if avg[c] /= float64(kept); avg[c] == 0 {
			return nil, nil, fmt.Errorf("core: calibration sweep of %s measured zero average power", sys.Spec.Name)
		}
	}
	for id := 0; id < n; id++ {
		for c, a := range avg {
			if quar[id] {
				vals[id*channels+c] = 1
			} else {
				vals[id*channels+c] /= a
			}
		}
	}
	return vals, quarantined, nil
}

// pvtRetries bounds the extra test-run attempts per module during a faulty
// install before the module is quarantined.
const pvtRetries = 2

// chunk is how many members one task of a calibration fan-out (the
// install-time sweep, the oracle measurement) measures. Each task records
// its test runs' metric writes into one telemetry.Batch and publishes it
// when it ends, so a 480-module sweep takes 15 flushes instead of 960 test
// runs' worth of shared-metric writes, while its 15 tasks still balance
// over a few workers. Chunks are fixed by member index, not by worker
// count, so every width measures the same members in the same order within
// a chunk. DESIGN.md's calibration section has the measurements.
const chunk = 32

// forChunks calls fn(i, b) for every member index i in [0, n),
// fanned out over workers in chunks of consecutive members, in index order
// within a chunk. Each chunk records into a batch of its own, taken from
// free (nil: a list of the call's own), and flushes it when it ends,
// failing or not, and stops at its first failing member; forChunks returns
// the error of the lowest failing member (parallel's lowest-index rule
// over chunks, and the serial order within one), as a serial loop over
// the members would.
func forChunks(ctx context.Context, workers, n int, free *batches, fn func(i int, b *telemetry.Batch) error) error {
	if free == nil {
		free = new(batches)
	}
	return parallel.ForEachCtx(ctx, workers, (n+chunk-1)/chunk, func(_ context.Context, c int) error {
		b := free.get()
		defer free.put(b)
		defer b.Flush()
		for i := c * chunk; i < min((c+1)*chunk, n); i++ {
			if err := fn(i, b); err != nil {
				return err
			}
		}
		return nil
	})
}

// batches is a free list of the batches chunks record into: a chunk takes
// one and puts it back flushed, so the chunks of a fan-out grow one batch
// per concurrent worker, not one each. Safe for concurrent use.
type batches struct {
	mu   sync.Mutex
	free []*telemetry.Batch
}

// get takes a batch off the list, or makes one when the list is empty.
func (l *batches) get() *telemetry.Batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(telemetry.Batch)
	}
	b := l.free[n-1]
	l.free = l.free[:n-1]
	return b
}

// put returns a flushed batch to the list.
func (l *batches) put(b *telemetry.Batch) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

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
