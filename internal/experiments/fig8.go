package experiments

import (
	"fmt"
	"io"

	"varpower/internal/core"
	"varpower/internal/measure"
	"varpower/internal/report"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Fig8iLevel is one constraint level of Figure 8(i): VaFs's power and
// normalised-time spread. The paper's point: VaFs trades *increased* power
// variation (Vp) for *eliminated* execution-time variation (Vt ≈ 1.0).
type Fig8iLevel struct {
	Cs           units.Watts
	FreqGHz      float64
	Vt           float64
	MeanNormTime float64
	Vp           float64
}

// Fig8iSeries is one benchmark's VaFs sweep.
type Fig8iSeries struct {
	Bench    string
	Uncapped Fig8iLevel // Cs = 0
	Levels   []Fig8iLevel
}

// Fig8iiLevel is one cap level of Figure 8(ii): MHD synchronisation time
// under VaFs on 64 modules — the Figure-3 problem, solved.
type Fig8iiLevel struct {
	CmAvg    units.Watts
	FreqGHz  float64
	MeanSync float64
	MaxSync  float64
	Vt       float64
	Vp       float64
}

// Fig8Result is both panels of Figure 8.
type Fig8Result struct {
	PowerPerf []Fig8iSeries
	Sync      []Fig8iiLevel
}

// Figure8 reproduces Figure 8 from the evaluation grid: panel (i) reuses
// the grid's VaFs runs for *DGEMM and MHD; panel (ii) re-runs 64-module MHD
// under VaFs at the Figure-3 cap levels.
func Figure8(g *EvalGrid) (Fig8Result, error) {
	var out Fig8Result
	for _, bench := range []*workload.Benchmark{workload.DGEMM(), workload.MHD()} {
		series, err := fig8PowerPerf(g, bench)
		if err != nil {
			return Fig8Result{}, err
		}
		out.PowerPerf = append(out.PowerPerf, series)
	}
	sync, err := fig8Sync(g)
	if err != nil {
		return Fig8Result{}, err
	}
	out.Sync = sync
	return out, nil
}

func fig8PowerPerf(g *EvalGrid, bench *workload.Benchmark) (Fig8iSeries, error) {
	base, err := measure.Run(g.Sys, measure.Config{Bench: bench, Modules: g.Modules, Mode: measure.ModeUncapped})
	if err != nil {
		return Fig8iSeries{}, err
	}
	series := Fig8iSeries{Bench: bench.Name}
	series.Uncapped = summariseFig8i(base, base, 0)
	for _, cs := range g.T4.EvaluatedConstraints(bench.Name) {
		cell, err := g.Cell(bench.Name, cs, core.VaFs)
		if err != nil {
			return Fig8iSeries{}, err
		}
		if cell.Err != nil {
			return Fig8iSeries{}, fmt.Errorf("experiments: figure 8(i) %s@%v: %w", bench.Name, cs, cell.Err)
		}
		lvl := summariseFig8i(cell.Run.Result, base, cs)
		lvl.FreqGHz = cell.Run.Alloc.Freq.GHz()
		series.Levels = append(series.Levels, lvl)
	}
	return series, nil
}

func summariseFig8i(res, base measure.Result, cs units.Watts) Fig8iLevel {
	norm := make([]float64, len(res.Ranks))
	mod := make([]float64, len(res.Ranks))
	for i, r := range res.Ranks {
		norm[i] = float64(r.End) / float64(base.Ranks[i].End)
		mod[i] = float64(r.Op.ModulePower())
	}
	ns := stats.MustSummarize(norm)
	return Fig8iLevel{
		Cs:           cs,
		Vt:           ns.Variation(),
		MeanNormTime: ns.Mean,
		Vp:           stats.Variation(mod),
	}
}

// fig8Sync runs 64-module MHD under VaFs at the Figure-3 average cap
// levels, reusing the grid's framework (and hence its PVT).
func fig8Sync(g *EvalGrid) ([]Fig8iiLevel, error) {
	n := Fig3Modules
	if g.Sys.NumModules() < n {
		n = g.Sys.NumModules()
	}
	ids := g.Modules[:n]
	bench := workload.MHD()
	var out []Fig8iiLevel
	for _, cm := range []units.Watts{90, 80, 70, 60} {
		budget := cm * units.Watts(float64(n))
		run, err := g.FW.Run(bench, ids, budget, core.VaFs)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 8(ii) Cm=%v: %w", cm, err)
		}
		var sync, mod []float64
		for _, r := range run.Result.Ranks {
			sync = append(sync, float64(r.Sendrecv))
			mod = append(mod, float64(r.Op.ModulePower()))
		}
		ss := stats.MustSummarize(sync)
		out = append(out, Fig8iiLevel{
			CmAvg:    cm,
			FreqGHz:  run.Alloc.Freq.GHz(),
			MeanSync: ss.Mean,
			MaxSync:  ss.Max,
			Vt:       ss.Variation(),
			Vp:       stats.Variation(mod),
		})
	}
	return out, nil
}

// RenderFigure8 writes both panels.
func RenderFigure8(w io.Writer, r Fig8Result) error {
	t := report.NewTable("Figure 8(i): Power-Performance Characteristics under VaFs",
		"Benchmark", "Cs", "f(alpha)", "Vt", "Vp(module)")
	for _, s := range r.PowerPerf {
		t.AddRow(s.Bench, "none", "-", report.Cellf(s.Uncapped.Vt, 2), report.Cellf(s.Uncapped.Vp, 2))
		for _, lvl := range s.Levels {
			t.AddRow(s.Bench, fmt.Sprintf("%.0f kW", lvl.Cs.KW()),
				report.Cellf(lvl.FreqGHz, 2)+" GHz",
				report.Cellf(lvl.Vt, 2), report.Cellf(lvl.Vp, 2))
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	t2 := report.NewTable("\nFigure 8(ii): MHD Synchronisation Time under VaFs (64 modules)",
		"Cm(avg)", "Freq", "Mean sync [s]", "Max sync [s]", "Vt(sync)", "Vp(module)")
	for _, lvl := range r.Sync {
		t2.AddRow(fmt.Sprintf("%.0f W", float64(lvl.CmAvg)),
			report.Cellf(lvl.FreqGHz, 2)+" GHz",
			report.Cellf(lvl.MeanSync, 2), report.Cellf(lvl.MaxSync, 2),
			report.Cellf(lvl.Vt, 2), report.Cellf(lvl.Vp, 2))
	}
	return t2.Render(w)
}
