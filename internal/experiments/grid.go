package experiments

import (
	"context"
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// GridCell is one (benchmark, constraint, scheme) evaluation.
//
// Cells are aggregated streamingly: the figures built from the grid need
// only a cell's elapsed time and measured power, so those are extracted as
// each cell completes and the heavyweight run (per-rank stats plus the
// scheme's PMT) is dropped. The exception is VaFs, whose full runs
// Figure 8 re-summarises per rank — only those cells retain Run.
type GridCell struct {
	Bench string
	// Cs is the paper-scale system constraint (for 1,920 modules); the
	// actual budget passed to the solver is rescaled to the grid's module
	// count.
	Cs     units.Watts
	Scheme core.Scheme
	// Elapsed is the final run's application time; AvgTotalPower its
	// measured average total power.
	Elapsed       units.Seconds
	AvgTotalPower units.Watts
	// Run is the full scheme run, retained for VaFs cells only.
	Run *core.SchemeRun
	Err error
}

// EvalGrid holds the full evaluation-section run matrix: every Table-4 "X"
// scenario under every scheme. Figures 7, 8(i) and 9 are views over it.
type EvalGrid struct {
	Opts    Options
	Sys     *cluster.System
	Modules []int
	FW      *core.Framework
	T4      Table4Result
	Cells   []GridCell

	// Uncapped is never filled or read; it is kept for callers that still
	// set it in EvalGrid literals.
	Uncapped map[string]units.Seconds
}

// EvaluationGrid runs the complete evaluation: it builds the framework
// (generating the PVT), derives the feasible scenario set from Table 4, and
// executes all six schemes on every X-marked (benchmark, Cs) pair.
//
// A scheme's model does not depend on the budget, so each benchmark's
// models are built once, before its cells: one task per group of schemes
// that share a measurement (core.ModelGroups), each on a fresh replica so
// its test runs start from power-on counters exactly as a per-cell Run's
// would. All of a benchmark's models then share one hold (core.ShareHold),
// made by the first of its cells to run. The cells only solve and execute. Both stages fan out over
// Options.Workers goroutines, each task on its own framework replica (the
// PVT is shared read-only; the system replica keeps RAPL limits and pinned
// frequencies private to the task). Every worker count — including the
// serial 1 — evaluates the same sequence of tasks on fresh replicas, so the
// grid is byte-identical regardless of parallelism.
//
// The final runs' measured energies can differ from a per-cell Run's by at
// most one RAPL unit (2⁻¹⁶ J) per 30 s poll chunk: a cell's counters no
// longer carry the sub-unit residue of test runs made earlier on its
// replica. Models, allocations and timings are unchanged.
func EvaluationGrid(o Options) (*EvalGrid, error) {
	o = o.withDefaults()
	sys, ids, err := o.haSystem()
	if err != nil {
		return nil, err
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, o.Workers)
	if err != nil {
		return nil, err
	}
	t4, err := Table4(o)
	if err != nil {
		return nil, err
	}
	g := &EvalGrid{Opts: o, Sys: sys, Modules: ids, FW: fw, T4: t4}
	type cellSpec struct {
		bench  *workload.Benchmark
		cs     units.Watts
		scheme core.Scheme
	}
	type modelSpec struct {
		bench   *workload.Benchmark
		schemes []core.Scheme
	}
	var specs []cellSpec
	var modelSpecs []modelSpec
	for _, bench := range workload.Evaluated() {
		constraints := t4.EvaluatedConstraints(bench.Name)
		if len(constraints) == 0 {
			continue
		}
		for _, schemes := range core.ModelGroups(core.AllSchemes()) {
			modelSpecs = append(modelSpecs, modelSpec{bench: bench, schemes: schemes})
		}
		for _, cs := range constraints {
			for _, scheme := range core.AllSchemes() {
				specs = append(specs, cellSpec{bench: bench, cs: cs, scheme: scheme})
			}
		}
	}
	// Tasks borrow framework replicas from a pool instead of cloning per
	// task: a recycled replica is reset to the fresh-clone state on return,
	// so the grid stays byte-identical while the allocation cost drops to
	// one replica per concurrent worker.
	pool := core.NewReplicaPool(fw)
	type modelKey struct {
		bench  string
		scheme core.Scheme
	}
	// A measurement that fails fails each cell of its schemes, as the cells'
	// own Runs would; the rest of the grid still runs.
	type builtModel struct {
		model *core.Model
		err   error
	}
	built, err := parallel.MapCtx(o.stageCtx("grid models"), o.Workers, len(modelSpecs), func(ctx context.Context, i int) ([]builtModel, error) {
		s := modelSpecs[i]
		_, span := obs.StartSpan(ctx, "grid.model")
		span.SetAttr("bench", s.bench.Name)
		for _, scheme := range s.schemes {
			span.SetAttr("scheme", scheme.String())
		}
		defer span.End()
		mfw := pool.Get()
		mfw.Trace = span
		models, err := mfw.BuildModels(s.bench, ids, s.schemes)
		pool.Put(mfw)
		out := make([]builtModel, len(s.schemes))
		for j := range out {
			if out[j].err = err; err == nil {
				out[j].model = models[j]
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	models := make(map[modelKey]builtModel)
	byBench := make(map[string][]*core.Model)
	for i, s := range modelSpecs {
		for j, scheme := range s.schemes {
			models[modelKey{s.bench.Name, scheme}] = built[i][j]
			if built[i][j].err == nil {
				byBench[s.bench.Name] = append(byBench[s.bench.Name], built[i][j].model)
			}
		}
	}
	// A benchmark's groups run the same program on the same modules: one
	// hold serves all of their cells.
	for _, ms := range byBench {
		if err := core.ShareHold(ms); err != nil {
			return nil, err
		}
	}
	g.Cells, err = parallel.MapCtx(o.stageCtx("grid"), o.Workers, len(specs), func(ctx context.Context, i int) (GridCell, error) {
		s := specs[i]
		_, span := obs.StartSpan(ctx, "grid.cell")
		span.SetAttr("bench", s.bench.Name)
		span.SetFloat("cs_w", float64(s.cs))
		span.SetAttr("scheme", s.scheme.String())
		defer span.End()
		m := models[modelKey{s.bench.Name, s.scheme}]
		var run *core.SchemeRun
		err := m.err
		if err == nil {
			cfw := pool.Get()
			cfw.Trace = span
			run, err = cfw.RunModel(m.model, CsForScale(s.cs, len(ids)))
			pool.Put(cfw)
		}
		cell := GridCell{Bench: s.bench.Name, Cs: s.cs, Scheme: s.scheme, Err: err}
		if err == nil {
			cell.Elapsed = run.Elapsed()
			cell.AvgTotalPower = run.Result.AvgTotalPower
			if s.scheme == core.VaFs {
				cell.Run = run
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Cell returns the grid cell for (bench, cs, scheme).
func (g *EvalGrid) Cell(bench string, cs units.Watts, scheme core.Scheme) (GridCell, error) {
	for _, c := range g.Cells {
		if c.Bench == bench && c.Cs == cs && c.Scheme == scheme {
			return c, nil
		}
	}
	return GridCell{}, fmt.Errorf("experiments: no grid cell for %s at %v under %v", bench, cs, scheme)
}

// Speedup returns the cell's speedup relative to the Naive baseline at the
// same constraint.
func (g *EvalGrid) Speedup(bench string, cs units.Watts, scheme core.Scheme) (float64, error) {
	base, err := g.Cell(bench, cs, core.Naive)
	if err != nil {
		return 0, err
	}
	if base.Err != nil {
		return 0, fmt.Errorf("experiments: Naive baseline failed for %s at %v: %w", bench, cs, base.Err)
	}
	c, err := g.Cell(bench, cs, scheme)
	if err != nil {
		return 0, err
	}
	if c.Err != nil {
		return 0, c.Err
	}
	return float64(base.Elapsed) / float64(c.Elapsed), nil
}

// Scenarios lists the distinct (bench, Cs) pairs in grid order.
func (g *EvalGrid) Scenarios() []struct {
	Bench string
	Cs    units.Watts
} {
	var out []struct {
		Bench string
		Cs    units.Watts
	}
	seen := map[string]bool{}
	for _, c := range g.Cells {
		key := fmt.Sprintf("%s|%v", c.Bench, c.Cs)
		if !seen[key] {
			seen[key] = true
			out = append(out, struct {
				Bench string
				Cs    units.Watts
			}{c.Bench, c.Cs})
		}
	}
	return out
}
