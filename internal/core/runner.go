package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/flight"
	"varpower/internal/measure"
	"varpower/internal/obs"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Framework is the end-to-end variation-aware power budgeting pipeline of
// the paper's Figure 4, bound to one system and its install-time PVT.
type Framework struct {
	Sys *cluster.System
	PVT *PVT
	// GPVT is the GPU device class's install-time table (one capped
	// channel per device, see class), which the hybrid pipeline
	// (SolveHetero, RunHetero) needs; nil on CPU-only systems and until
	// NewHeteroFramework or the caller sets it.
	GPVT *PVT

	// Workers bounds the fan-out of the framework's per-module loops
	// (oracle measurement, final-run resolution and accounting): < 1
	// selects GOMAXPROCS, 1 recovers the fully serial pipeline. Results
	// are byte-identical for every worker count, so a caller that already
	// runs replicas concurrently (EvaluationGrid's cells) may set 1 on
	// each borrowed replica; ReplicaPool.Put restores the base width.
	Workers int

	// Recorder, when non-nil, attaches the framework's *final* application
	// runs (Execute) to the flight recorder; PMT test runs and oracle
	// measurements stay unrecorded. Clone deliberately does not copy it:
	// sweep engines that fan cells out across replicas would otherwise
	// commit runs in scheduling order and break trace determinism. Attach a
	// recorder only to serially executed frameworks.
	Recorder *flight.Recorder

	// Attrib, when non-nil, streams the framework's final application runs
	// (Execute) into the continuous power-attribution collector; PMT test
	// runs and oracle measurements stay unobserved, mirroring Recorder.
	// Clone does not copy it (sweep replicas would double-count energy);
	// ReplicaPool.Put detaches it on return.
	Attrib *attrib.Collector
	// Tenant and JobID label Execute's runs in the collector's energy
	// accounting (collector defaults apply when empty).
	Tenant string
	JobID  string

	// Trace, when traced, parents the spans of Run, RunModel, Execute and
	// the oracle measurement (test runs open none); Clone does not copy it
	// and ReplicaPool.Put detaches it.
	Trace obs.Span

	// mem is the memory the framework's runs reuse (see runMemory); nil,
	// as in a Framework literal, makes every run allocate its own.
	// Clone gives the replica memory of its own, and a pooled replica
	// keeps its memory across borrows.
	mem *runMemory
}

// runMemory is what a framework's runs use and do not return, kept across
// them: for final runs, the measure.Runner (its metric batch, operating
// points and DES scratch) and the per-rank caps or clocks a run programs;
// for oracle measurements, the chunks' batches. A final run holds mu while
// it uses the memory; a framework should not run two runs at once (they
// would clobber each other's limits), but one that runs jobs on disjoint
// modules concurrently (sched) may, and a run that finds the memory held
// makes its own. chunks guards itself.
type runMemory struct {
	mu     sync.Mutex
	run    measure.Runner
	caps   []units.Watts
	freqs  []units.Hertz
	chunks batches
}

// NewFramework instantiates the framework, generating the system's PVT with
// the given microbenchmark (nil selects the paper's choice, *STREAM).
func NewFramework(sys *cluster.System, micro *workload.Benchmark) (*Framework, error) {
	return NewFrameworkWorkers(sys, micro, 0)
}

// NewFrameworkWorkers is NewFramework with an explicit fan-out width for
// PVT generation and all subsequent per-module loops (< 1 selects
// GOMAXPROCS, 1 recovers the fully serial pipeline).
func NewFrameworkWorkers(sys *cluster.System, micro *workload.Benchmark, workers int) (*Framework, error) {
	pvt, err := GeneratePVTWorkers(sys, micro, workers)
	if err != nil {
		return nil, err
	}
	return &Framework{Sys: sys, PVT: pvt, Workers: workers, mem: new(runMemory)}, nil
}

// NewFrameworkWithPVT binds a previously generated (e.g. loaded) PVT.
func NewFrameworkWithPVT(sys *cluster.System, pvt *PVT) (*Framework, error) {
	if pvt == nil || len(pvt.Entries) == 0 {
		return nil, fmt.Errorf("core: framework needs a non-empty PVT")
	}
	if pvt.System != sys.Spec.Name {
		return nil, fmt.Errorf("core: PVT is for %q, system is %q", pvt.System, sys.Spec.Name)
	}
	return &Framework{Sys: sys, PVT: pvt, mem: new(runMemory)}, nil
}

// Clone returns a framework over an independent replica of the system,
// sharing the (read-only) install-time tables. Replicas measure
// byte-identically to the original — see cluster.System.Clone — which lets
// sweep engines run many (benchmark, budget, scheme) evaluations
// concurrently without the runs clobbering each other's RAPL limits and
// pinned frequencies. The replica gets run memory of its own.
func (fw *Framework) Clone() *Framework {
	return &Framework{Sys: fw.Sys.Clone(), PVT: fw.PVT, GPVT: fw.GPVT, Workers: fw.Workers, mem: new(runMemory)}
}

// BuildPMT constructs the scheme's power model for the allocated modules:
//
//   - Naive: TDP-based constants, no measurement at all;
//   - Pc: the oracle measurement of every module, averaged so every module
//     is treated identically (application-aware, variation-unaware);
//   - VaPc / VaFs: single-module test runs calibrated through the PVT
//     (Section 5.2);
//   - VaPcOr / VaFsOr: oracle measurement of every module.
//
// The test module for calibrated schemes is drawn from the job's own
// allocation, as in the paper; see closestToMean for how it is chosen.
func (fw *Framework) BuildPMT(bench *workload.Benchmark, moduleIDs []int, scheme Scheme) (*PMT, error) {
	pmt, err := fw.measurePMT(moduleClass, bench, moduleIDs, scheme)
	if err != nil {
		return nil, err
	}
	return pmt.forScheme(scheme), nil
}

// measurePMT makes the measurement the scheme's model of class c rests on
// (see Scheme.measurement) and returns the table it yields, before Pc
// averages it.
func (fw *Framework) measurePMT(c *class, bench *workload.Benchmark, ids []int, scheme Scheme) (*PMT, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: empty %s allocation", c.noun)
	}
	switch scheme.measurement() {
	case measureNone:
		return c.naivePMT(fw.Sys, ids), nil
	case measureOracle:
		return fw.oraclePMT(c, bench, ids)
	case measureCalibration:
		return fw.calibrated(c, bench, ids)
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", scheme)
	}
}

// calibrated is the paper's two-run calibration of class c's members ids:
// one test pair on the member closest to the PVT mean, scaled through the
// PVT to all of them.
func (fw *Framework) calibrated(c *class, bench *workload.Benchmark, ids []int) (*PMT, error) {
	pvt := c.table(fw)
	pair, err := c.testPair(fw.Sys, bench, closestToMean(ids, -1, pvt.deviation))
	if err != nil {
		return nil, err
	}
	return Calibrate(pvt, pair, bench, ids)
}

// forScheme returns the scheme's view of a measured table. The paper's Pc
// uses "the application-specific average values across all modules" — the
// all-module measurement averaged into a uniform table, not the
// single-module calibration; every other scheme reads the table as is.
func (p *PMT) forScheme(scheme Scheme) *PMT {
	if scheme == Pc {
		return p.Uniform()
	}
	return p
}

// fsMargin measures the calibrated model's relative prediction error on a
// held-out member of class c (the allocated member ranked second-closest
// to the PVT mean) and returns it, clamped to [0.005, 0.08], as the
// fractional budget reserve for frequency selection.
func (fw *Framework) fsMargin(c *class, pmt *PMT, bench *workload.Benchmark, ids []int) (float64, error) {
	pvt := c.table(fw)
	test := closestToMean(ids, -1, pvt.deviation)
	holdout := closestToMean(ids, test, pvt.deviation)
	pair, err := c.testPair(fw.Sys, bench, holdout)
	if err != nil {
		return 0, fmt.Errorf("core: FS margin holdout run: %w", err)
	}
	for i := range pmt.Entries {
		if pmt.Entries[i].ModuleID == holdout {
			return units.Clamp(holdoutError(pmt.Entries[i], pair), 0.005, 0.08), nil
		}
	}
	return 0, fmt.Errorf("core: holdout %s %d missing from PMT", c.noun, holdout)
}

// closestToMean picks, among the allocated ids other than skip, the one
// whose install-time scales lie closest to the population mean (smallest
// finite deviation, ties to the earliest); with none, ids[0], or ids[1]
// when ids[0] is skip. It chooses the calibration's test module or device
// (skip -1) and then, skipping that one, the VaFs hold-out.
//
// Calibration divides the test measurement by the test member's scales, so
// any idiosyncrasy of that one member (an extreme leakage/dynamic mix, a
// large workload residual) biases the whole table — and through α, the
// power of *every* member of an FS run. An average member has the least
// leverage; the PVT, which the system already has, identifies it for free.
func closestToMean(ids []int, skip int, deviation func(id int) float64) int {
	best := ids[0]
	if best == skip && len(ids) > 1 {
		best = ids[1]
	}
	bestDev := math.Inf(1)
	for _, id := range ids {
		if id == skip {
			continue
		}
		if dev := deviation(id); dev < bestDev {
			best, bestDev = id, dev
		}
	}
	return best
}

// SchemeRun is one complete scheme evaluation: the model, the allocation,
// and the measured final run.
type SchemeRun struct {
	Scheme Scheme
	Bench  string
	Budget units.Watts
	PMT    *PMT
	Alloc  *Allocation
	Result measure.Result
}

// Elapsed is the final run's application time.
func (r *SchemeRun) Elapsed() units.Seconds { return r.Result.Elapsed }

// ErrBudgetInfeasible reports that the budget cannot be met even at fmin.
type ErrBudgetInfeasible struct {
	Scheme Scheme
	Budget units.Watts
}

// Error implements error.
func (e ErrBudgetInfeasible) Error() string {
	return fmt.Sprintf("core: budget %v infeasible under scheme %v (exceeds fmin power)", e.Budget, e.Scheme)
}

// Model is the budget-independent half of a scheme evaluation: the power
// model the α-solve reads and, for VaFs, the budget reserve measured on a
// held-out module. Nothing in it depends on the budget, so one model serves
// every budget: build it once, then Allocate or RunModel it per budget.
type Model struct {
	Scheme  Scheme
	Bench   *workload.Benchmark
	Modules []int
	PMT     *PMT
	// Margin is the fractional budget reserve the α-solve holds back. FS
	// enforces a clock, not a power bound (Section 5.3's caveat), so a
	// calibration under-estimate turns directly into a budget violation;
	// VaFs guards with the model's *measured* error on a held-out module —
	// one extra cheap test pair. Every other scheme's margin is 0.
	Margin float64

	// class is the device class the model budgets; nil, as in a model
	// literal, means modules.
	class *class
	// prog holds the DES program and hardware draws of the model's runs;
	// nil for a model BuildModels did not make, whose runs make their own.
	prog *modelProgram
}

// modelProgram is what the runs of the models of one BuildModels call
// (or, through ShareHold, of several) share, since they run the same
// benchmark on the same modules at every budget: one measure.Hold, which
// carries the DES program and the hardware model's budget-independent
// draws (each rank's workload residual, uncapped operating point and
// run-noise factor). It is made on the first RunModel of any of the
// models, not with the models: a model may never run (SolveHetero builds
// models only to solve them), and a hold costs more to make than a solve. Later runs, at any budget and on any replica
// of the framework that built the models, reuse it; runs only read it, so
// concurrent cells may share it. It depends on the system seed, so it
// serves only runs on systems with the seed of the framework that built
// the models.
type modelProgram struct {
	seed uint64
	once sync.Once
	hold *measure.Hold
}

// program returns the hold for a run of m on sys, or nil when the run must
// make its own.
func (m *Model) program(sys *cluster.System) *measure.Hold {
	h := m.prog
	if h == nil || h.seed != sys.Seed {
		return nil
	}
	h.once.Do(func() {
		// A failed build leaves the hold nil: measure.Run then makes the
		// program and draws itself and reports the error where it always
		// has.
		h.hold, _ = measure.NewHold(sys, m.Bench, m.Modules)
	})
	return h.hold
}

// ShareHold makes models share one hold, so the groups of schemes of one
// benchmark (ModelGroups), each built by a BuildModels call of its own,
// make one hold between them instead of one per group: a hold depends only
// on the system seed, the benchmark and the module list, which such models
// have in common. The models must come from BuildModels on replicas of one
// framework, for one benchmark (the same *workload.Benchmark) and equal
// module lists; otherwise ShareHold returns an error and changes nothing.
// Call it before any of the models runs. The models' runs measure exactly
// what they would with a hold per group.
func ShareHold(models []*Model) error {
	if len(models) == 0 {
		return nil
	}
	first := models[0]
	for _, m := range models {
		if m.prog == nil || m.prog.seed != first.prog.seed || m.class != first.class ||
			m.Bench != first.Bench || !slices.Equal(m.Modules, first.Modules) {
			return fmt.Errorf("core: models built apart or for different benchmarks, modules or seeds cannot share a hold")
		}
	}
	for _, m := range models {
		m.prog = first.prog
	}
	return nil
}

// BuildModel is Run's model step: instrument the application and make the
// scheme's test runs.
func (fw *Framework) BuildModel(bench *workload.Benchmark, moduleIDs []int, scheme Scheme) (*Model, error) {
	models, err := fw.BuildModels(bench, moduleIDs, []Scheme{scheme})
	if err != nil {
		return nil, err
	}
	return models[0], nil
}

// BuildModels is BuildModel for schemes whose models rest on one
// measurement (one group of ModelGroups): the test runs are made once and
// every scheme's model is derived from them, equal to the model BuildModel
// would build for that scheme on a replica in the same state. VaFs's
// hold-out pair runs after the calibration it checks, as it does in Run.
func (fw *Framework) BuildModels(bench *workload.Benchmark, moduleIDs []int, schemes []Scheme) ([]*Model, error) {
	inst, err := Instrument(bench)
	if err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return fw.buildModels(moduleClass, bench, moduleIDs, schemes)
}

// buildModels is BuildModels for the members ids of class c, without the
// instrumentation check.
func (fw *Framework) buildModels(c *class, bench *workload.Benchmark, ids []int, schemes []Scheme) ([]*Model, error) {
	if len(schemes) == 0 || len(schemes) > 1 && len(ModelGroups(schemes)) != 1 {
		return nil, fmt.Errorf("core: schemes %v do not share one measurement", schemes)
	}
	pmt, err := fw.measurePMT(c, bench, ids, schemes[0])
	if err != nil {
		return nil, err
	}
	var margin float64
	if slices.Contains(schemes, VaFs) {
		if margin, err = fw.fsMargin(c, pmt, bench, ids); err != nil {
			return nil, err
		}
	}
	models := make([]*Model, len(schemes))
	prog := &modelProgram{seed: fw.Sys.Seed}
	for i, s := range schemes {
		models[i] = &Model{Scheme: s, Bench: bench, Modules: ids, PMT: pmt.forScheme(s), class: c, prog: prog}
		if s == VaFs {
			models[i].Margin = margin
		}
	}
	return models, nil
}

// ModelGroups partitions schemes by the measurement their models rest on,
// keeping the order in which each group's first scheme appears. The oracle
// sweep feeds Pc (averaged), VaPcOr and VaFsOr; the two-run calibration
// feeds VaPc and VaFs; Naive measures nothing. Each group needs one
// BuildModels call on a replica of its own: test runs leave sub-unit energy
// residue on the counters they read, so two measurements on one replica
// would not each equal a fresh one.
func ModelGroups(schemes []Scheme) [][]Scheme {
	var groups [][]Scheme
	at := make(map[measurement]int)
	for _, s := range schemes {
		i, ok := at[s.measurement()]
		if !ok {
			i = len(groups)
			at[s.measurement()] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], s)
	}
	return groups
}

// Run executes the full pipeline for one (application, allocation, budget,
// scheme) combination: BuildModel (instrument, test-run/calibrate per the
// scheme), then RunModel (solve for α, enforce via PC or FS, and run the
// application).
func (fw *Framework) Run(bench *workload.Benchmark, moduleIDs []int, budget units.Watts, scheme Scheme) (*SchemeRun, error) {
	span := fw.startSpan("framework.run", bench, budget, scheme)
	defer span.End()
	sp := span.Start("pmt.build")
	m, err := fw.under(sp).BuildModel(bench, moduleIDs, scheme)
	sp.End()
	if err != nil {
		return nil, err
	}
	return fw.runModel(span, m, budget)
}

// RunModel is Run's solve-and-execute step: Allocate the budget, enforce
// the allocation via PC or FS, and run the application on the model's
// modules. A model may be run any number of times, at any budget, on any
// replica of the framework that built it.
func (fw *Framework) RunModel(m *Model, budget units.Watts) (*SchemeRun, error) {
	span := fw.startSpan("framework.run", m.Bench, budget, m.Scheme)
	defer span.End()
	return fw.runModel(span, m, budget)
}

// startSpan opens a span for one scheme evaluation under fw.Trace.
func (fw *Framework) startSpan(name string, bench *workload.Benchmark, budget units.Watts, scheme Scheme) obs.Span {
	span := fw.Trace.Start(name)
	span.SetAttr("bench", bench.Name)
	span.SetFloat("budget_w", float64(budget))
	span.SetAttr("scheme", scheme.String())
	return span
}

// under returns fw with its spans opening under span: a shallow copy when
// span is traced, fw itself when it is not (its spans are untraced then
// either way).
func (fw *Framework) under(span obs.Span) *Framework {
	if span.ID().IsZero() {
		return fw
	}
	c := *fw
	c.Trace = span
	return &c
}

func (fw *Framework) runModel(span obs.Span, m *Model, budget units.Watts) (*SchemeRun, error) {
	sp := span.Start("budget.solve")
	alloc, err := m.Allocate(fw.Sys.Spec, budget)
	sp.End()
	if err != nil {
		return nil, err
	}
	if !alloc.Feasible {
		return nil, ErrBudgetInfeasible{Scheme: m.Scheme, Budget: budget}
	}
	sp = span.Start("framework.execute")
	res, err := fw.under(sp).execute(m.Bench, m.Modules, alloc, m.Scheme, m.program(fw.Sys))
	sp.End()
	if err != nil {
		return nil, err
	}
	return &SchemeRun{
		Scheme: m.Scheme, Bench: m.Bench.Name, Budget: budget,
		PMT: m.PMT, Alloc: alloc, Result: res,
	}, nil
}

// Execute enforces an allocation and runs the application: PC schemes
// program per-module RAPL caps (Equation 9's Pcpu_i); FS schemes pin every
// module to the common α-derived frequency, quantised down to a real
// P-state.
func (fw *Framework) Execute(bench *workload.Benchmark, moduleIDs []int, alloc *Allocation, scheme Scheme) (measure.Result, error) {
	return fw.execute(bench, moduleIDs, alloc, scheme, nil)
}

// execute is Execute from hold, which must be bench's hold for moduleIDs on
// fw's system; nil makes the program and draws per run.
func (fw *Framework) execute(bench *workload.Benchmark, moduleIDs []int, alloc *Allocation, scheme Scheme, hold *measure.Hold) (measure.Result, error) {
	if len(alloc.Entries) != len(moduleIDs) {
		return measure.Result{}, fmt.Errorf("core: allocation covers %d modules, job has %d", len(alloc.Entries), len(moduleIDs))
	}
	cfg := measure.Config{
		Bench: bench, Modules: moduleIDs, Workers: fw.Workers,
		Recorder: fw.Recorder,
		Attrib:   fw.Attrib,
		Tenant:   fw.Tenant,
		JobID:    fw.JobID,
		Trace:    fw.Trace,
		Hold:     hold,
	}
	if fw.Recorder != nil {
		cfg.RecordLabel = fmt.Sprintf("%s/%v", bench.Name, scheme)
	}
	mem := fw.mem
	if mem == nil || !mem.mu.TryLock() {
		mem = new(runMemory)
	} else {
		defer mem.mu.Unlock()
	}
	if scheme.UsesFS() {
		f := fw.Sys.Spec.Arch.QuantizeDown(alloc.Freq)
		cfg.Mode = measure.ModePinned
		mem.freqs = slices.Grow(mem.freqs[:0], len(moduleIDs))
		for range moduleIDs {
			mem.freqs = append(mem.freqs, f)
		}
		cfg.Freqs = mem.freqs
	} else {
		mem.caps = mem.caps[:0]
		for _, e := range alloc.Entries {
			if e.Pcpu <= 0 {
				return measure.Result{}, fmt.Errorf("core: non-positive CPU cap %v for module %d", e.Pcpu, e.ModuleID)
			}
			mem.caps = append(mem.caps, e.Pcpu)
		}
		cfg.Mode = measure.ModeCapped
		cfg.CPUCaps = mem.caps
	}
	return mem.run.Run(fw.Sys, cfg)
}
