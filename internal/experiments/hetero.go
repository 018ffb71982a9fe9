package experiments

import (
	"context"
	"fmt"
	"io"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/faults"
	"varpower/internal/parallel"
	"varpower/internal/report"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// DefaultHeteroModules is the hetero experiment's CPU-module count — a
// quarter-scale HA8K-hybrid (the GPU population follows from the node
// count: 4 boards per 2-socket node).
const DefaultHeteroModules = 256

// HeteroBudgetFrac places the system budget along the combined naive
// demand range [ΣPmin, ΣPmax]: high enough that the naive uniform class
// split is feasible, low enough that it visibly starves the GPU-heavy
// class.
const HeteroBudgetFrac = 0.55

// HeteroCell is one (scheme, splitter) evaluation of the hierarchical
// budgeting pipeline on the hybrid system.
type HeteroCell struct {
	Scheme   core.Scheme
	Splitter core.Splitter
	// CPUBudget and GPUBudget are the class shares the splitter granted.
	CPUBudget units.Watts
	GPUBudget units.Watts
	// Alpha and GPUAlpha are the per-class solve outcomes.
	Alpha    float64
	GPUAlpha float64
	// Elapsed is the job's completion time (slower of the overlapped class
	// phases); AvgPower the steady-state system power; MinClock the
	// slowest delivered SM clock.
	Elapsed  units.Seconds
	AvgPower units.Watts
	MinClock units.Hertz
	// Adheres reports AvgPower ≤ the machine budget.
	Adheres bool
	Err     error
}

// HeteroResult is the hetero experiment's full sweep.
type HeteroResult struct {
	System  string
	Bench   string
	Modules int
	Devices int
	// Budget is the machine-level constraint every cell runs under.
	Budget units.Watts
	// GPUQuarantined counts devices the install-time GPU PVT sweep
	// quarantined (0 without fault injection).
	GPUQuarantined int
	Cells          []HeteroCell
}

// Cell returns the cell for (scheme, splitter).
func (r *HeteroResult) Cell(scheme core.Scheme, splitter core.Splitter) (HeteroCell, error) {
	for _, c := range r.Cells {
		if c.Scheme == scheme && c.Splitter == splitter {
			return c, nil
		}
	}
	return HeteroCell{}, fmt.Errorf("experiments: no hetero cell for %v/%v", scheme, splitter)
}

// Speedup returns a cell's speedup relative to the Naive/uniform baseline.
func (r *HeteroResult) Speedup(scheme core.Scheme, splitter core.Splitter) (float64, error) {
	base, err := r.Cell(core.Naive, core.SplitUniform)
	if err != nil {
		return 0, err
	}
	if base.Err != nil {
		return 0, fmt.Errorf("experiments: Naive/uniform baseline failed: %w", base.Err)
	}
	c, err := r.Cell(scheme, splitter)
	if err != nil {
		return 0, err
	}
	if c.Err != nil {
		return 0, c.Err
	}
	return float64(base.Elapsed) / float64(c.Elapsed), nil
}

// heteroSchemes are the schemes the sweep compares: the naive baseline and
// the two practical variation-aware enforcement paths (the oracle schemes
// add nothing the Figure-7 grid has not already established).
func heteroSchemes() []core.Scheme {
	return []core.Scheme{core.Naive, core.VaPc, core.VaFs}
}

// Hetero runs the heterogeneous budgeting sweep: one hybrid system, one
// machine budget, every (scheme, splitter) combination of the hierarchical
// pipeline. Cells run on independent framework clones and the sweep is
// byte-identical at every worker count; with a Recorder attached the cells
// run serially (commit order is part of the trace) and each final run's CPU
// capture and GPU counter tracks land on the timeline.
func Hetero(o Options) (*HeteroResult, error) {
	o = o.withDefaults()
	n := o.HeteroModules
	if n <= 0 {
		n = DefaultHeteroModules
	}
	name := o.HeteroSystem
	if name == "" {
		name = "HA8K-hybrid"
	}
	spec, err := cluster.SpecByName(name)
	if err != nil {
		return nil, err
	}
	if !spec.Hybrid() {
		return nil, fmt.Errorf("experiments: hetero needs a hybrid system, %s has no GPU class", spec.Name)
	}
	span := o.Trace.Start("hetero")
	span.SetAttr("system", spec.Name)
	span.SetInt("modules", n)
	defer span.End()
	sys, err := cluster.New(spec, n, o.Seed)
	if err != nil {
		return nil, err
	}
	if o.Faults != nil {
		in, ferr := faults.NewInjector(o.Faults)
		if ferr != nil {
			return nil, ferr
		}
		sys.InstallFaults(in)
	}
	ids, err := sys.AllocateFirst(sys.NumModules())
	if err != nil {
		return nil, err
	}
	hf, err := core.NewHeteroFramework(sys, nil, o.Workers)
	if err != nil {
		return nil, err
	}
	devs := hf.AllDevices()
	bench := workload.MHD()
	budget, err := heteroBudgetFor(hf, bench, ids, devs)
	if err != nil {
		return nil, err
	}
	out := &HeteroResult{
		System: spec.Name, Bench: bench.Name,
		Modules: len(ids), Devices: len(devs),
		GPUQuarantined: len(hf.GPVT.Quarantined),
		Budget:         budget,
	}
	type cellSpec struct {
		scheme   core.Scheme
		splitter core.Splitter
	}
	var specs []cellSpec
	for _, scheme := range heteroSchemes() {
		for _, splitter := range core.AllSplitters() {
			specs = append(specs, cellSpec{scheme, splitter})
		}
	}
	runCell := func(s cellSpec, recorded bool) HeteroCell {
		sp := span.Start("hetero.cell")
		defer sp.End()
		cfw := hf.Clone()
		cfw.Trace = sp
		if recorded {
			cfw.Recorder = o.Recorder
		}
		run, err := cfw.RunHetero(bench, ids, devs, out.Budget, s.scheme, s.splitter)
		cell := HeteroCell{Scheme: s.scheme, Splitter: s.splitter, Err: err}
		if err == nil {
			cell.CPUBudget = run.Alloc.CPUBudget
			cell.GPUBudget = run.Alloc.GPUBudget
			cell.Alpha = run.Alloc.CPU.Alpha
			cell.GPUAlpha = run.Alloc.GPU.Alpha
			cell.Elapsed = run.Elapsed
			cell.AvgPower = run.AvgPower
			cell.MinClock = run.MinClock
			cell.Adheres = run.AvgPower <= out.Budget
		}
		return cell
	}
	if o.Recorder != nil {
		out.Cells = make([]HeteroCell, len(specs))
		for i, s := range specs {
			out.Cells[i] = runCell(s, true)
		}
		return out, nil
	}
	out.Cells, err = parallel.MapCtx(o.stageCtx("hetero"), o.Workers, len(specs),
		func(_ context.Context, i int) (HeteroCell, error) {
			return runCell(specs[i], false), nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// heteroBudgetFor derives the machine budget from the naive (spec-sheet)
// demand envelope of both classes — deterministic in the system alone.
func heteroBudgetFor(hf *core.Framework, bench *workload.Benchmark, ids, devs []int) (units.Watts, error) {
	gpmt, err := hf.BuildGPUPMT(bench, devs, core.Naive)
	if err != nil {
		return 0, err
	}
	var min, max units.Watts
	for _, e := range append(core.NaivePMT(hf.Sys, ids).Entries, gpmt.Entries...) {
		min += e.ModuleMin()
		max += e.ModuleMax()
	}
	return units.Watts(units.Lerp(float64(min), float64(max), HeteroBudgetFrac)), nil
}

// RenderHetero writes the sweep as one table, cells normalised against the
// Naive/uniform baseline.
func RenderHetero(w io.Writer, r *HeteroResult) error {
	t := report.NewTable(
		fmt.Sprintf("Hetero: %s on %s (%d modules + %d GPUs) under %.0f kW",
			r.Bench, r.System, r.Modules, r.Devices, r.Budget.KW()),
		"Scheme", "Splitter", "CPU kW", "GPU kW", "α cpu", "α gpu", "Elapsed s", "Power kW", "Adh", "Speedup")
	for _, c := range r.Cells {
		if c.Err != nil {
			t.AddRow(c.Scheme.String(), c.Splitter.String(), "—", "—", "—", "—", "—", "—", "—", "infeasible")
			continue
		}
		adh := "yes"
		if !c.Adheres {
			adh = "NO"
		}
		speedup, err := r.Speedup(c.Scheme, c.Splitter)
		sp := "—"
		if err == nil {
			sp = report.Cellf(speedup, 3) + "×"
		}
		t.AddRow(
			c.Scheme.String(), c.Splitter.String(),
			report.Cellf(c.CPUBudget.KW(), 1), report.Cellf(c.GPUBudget.KW(), 1),
			report.Cellf(c.Alpha, 3), report.Cellf(c.GPUAlpha, 3),
			report.Cellf(float64(c.Elapsed), 3), report.Cellf(c.AvgPower.KW(), 1),
			adh, sp)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if r.GPUQuarantined > 0 {
		if _, err := fmt.Fprintf(w, "\nGPU devices quarantined at install time: %d\n", r.GPUQuarantined); err != nil {
			return err
		}
	}
	return nil
}
