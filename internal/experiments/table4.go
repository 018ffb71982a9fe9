package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"varpower/internal/cluster"
	"varpower/internal/hw/module"
	"varpower/internal/measure"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/report"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Table4Mark is one cell of the paper's Table 4.
type Table4Mark string

// Table-4 cell marks.
const (
	// MarkRun ("X"): the scenario is power constrained and runnable — it
	// appears in the Figure-7/9 evaluation.
	MarkRun Table4Mark = "X"
	// MarkUnconstrained ("•"): the application's uncapped power already
	// fits the constraint; capping would change nothing.
	MarkUnconstrained Table4Mark = "•"
	// MarkInfeasible ("–"): even the minimum CPU frequency exceeds the
	// constraint; the application cannot run.
	MarkInfeasible Table4Mark = "–"
)

// Table4Row is one benchmark's row.
type Table4Row struct {
	Bench string
	// UncappedModuleW and FminModuleW are the average per-module powers
	// that decide the row's boundaries.
	UncappedModuleW float64
	FminModuleW     float64
	Marks           []Table4Mark
}

// Table4Result is the feasibility grid.
type Table4Result struct {
	CsKW []float64
	CmW  []float64
	Rows []Table4Row
}

// Table4 reproduces the paper's Table 4: for each benchmark and system
// constraint Cs, whether the scenario is evaluated (X), not sufficiently
// constrained (•), or infeasible (–). The boundaries follow from each
// module's steady-state power: a scenario is unconstrained when the average
// uncapped module power fits within Cm = Cs/n, and infeasible when even
// fmin operation exceeds the budget. Those powers are the operating points
// a run resolves before it executes, so each row resolves its uncapped and
// fmin points (measure.Resolve) and runs no application.
func Table4(o Options) (Table4Result, error) {
	o = o.withDefaults()
	sys, ids, err := o.haSystem()
	if err != nil {
		return Table4Result{}, err
	}
	out := Table4Result{}
	for _, cs := range CsLevels {
		out.CsKW = append(out.CsKW, float64(cs)/1e3)
		out.CmW = append(out.CmW, float64(cs)/1920)
	}
	fmins := make([]units.Hertz, len(ids))
	for i := range fmins {
		fmins[i] = sys.Spec.Arch.FMin
	}
	// Each benchmark's uncapped and fmin points resolve on a private system
	// replica so the rows can be resolved concurrently; the per-row marks
	// derive only from deterministic operating points, so the table is
	// byte-identical for every worker count. Replicas are pooled: a row
	// returns its system reset to power-on state for the next row to
	// borrow, capping clone allocations at one replica per worker.
	var sysPool sync.Pool
	benches := workload.Evaluated()
	out.Rows, err = parallel.MapCtx(o.stageCtx("table4"), o.Workers, len(benches), func(ctx context.Context, i int) (Table4Row, error) {
		b := benches[i]
		_, span := obs.StartSpan(ctx, "table4.row")
		span.SetAttr("bench", b.Name)
		defer span.End()
		rsys, _ := sysPool.Get().(*cluster.System)
		if rsys == nil {
			rsys = sys.Clone()
		}
		defer func() {
			rsys.Reset()
			sysPool.Put(rsys)
		}()
		unc, err := measure.Resolve(rsys, measure.Config{Bench: b, Modules: ids, Mode: measure.ModeUncapped, Workers: o.Workers, Trace: span})
		if err != nil {
			return Table4Row{}, fmt.Errorf("experiments: table 4 %s: %w", b.Name, err)
		}
		min, err := measure.Resolve(rsys, measure.Config{Bench: b, Modules: ids, Mode: measure.ModePinned, Freqs: fmins, Workers: o.Workers, Trace: span})
		if err != nil {
			return Table4Row{}, fmt.Errorf("experiments: table 4 %s at fmin: %w", b.Name, err)
		}
		row := Table4Row{
			Bench:           b.Name,
			UncappedModuleW: meanModulePower(unc),
			FminModuleW:     meanModulePower(min),
		}
		for _, cm := range out.CmW {
			switch {
			case cm < row.FminModuleW:
				row.Marks = append(row.Marks, MarkInfeasible)
			case cm >= row.UncappedModuleW:
				row.Marks = append(row.Marks, MarkUnconstrained)
			default:
				row.Marks = append(row.Marks, MarkRun)
			}
		}
		return row, nil
	})
	if err != nil {
		return Table4Result{}, err
	}
	return out, nil
}

// EvaluatedConstraints returns, for one benchmark row, the Cs values marked
// X — the scenarios Figures 7 and 9 evaluate.
func (t Table4Result) EvaluatedConstraints(bench string) []units.Watts {
	for _, row := range t.Rows {
		if row.Bench != bench {
			continue
		}
		var out []units.Watts
		for i, m := range row.Marks {
			if m == MarkRun {
				out = append(out, units.Watts(t.CsKW[i]*1e3))
			}
		}
		return out
	}
	return nil
}

func meanModulePower(ops []module.OperatingPoint) float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = float64(op.ModulePower())
	}
	return stats.Mean(xs)
}

// RenderTable4 writes the feasibility grid.
func RenderTable4(w io.Writer, t4 Table4Result) error {
	header := []string{"Benchmark"}
	for i := range t4.CsKW {
		header = append(header, fmt.Sprintf("%.0fkW/%.0fW", t4.CsKW[i], t4.CmW[i]))
	}
	t := report.NewTable("Table 4: Power Constraints on HA8K (X=evaluated, •=unconstrained, –=infeasible)", header...)
	for _, row := range t4.Rows {
		cells := []string{row.Bench}
		for _, m := range row.Marks {
			cells = append(cells, string(m))
		}
		t.AddRow(cells...)
	}
	return t.Render(w)
}
