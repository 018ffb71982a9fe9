package experiments

import (
	"fmt"
	"io"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/flight"
	"varpower/internal/measure"
	"varpower/internal/report"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Figure-2 benchmarks and per-panel cap sweeps, matching the paper's
// panels: *DGEMM is shown down to Cm = 60 W, MHD down to Cm = 70 W (below
// those the respective application cannot run).
var (
	fig2DGEMMCaps = []units.Watts{0, 90, 80, 70, 60}
	fig2MHDCaps   = []units.Watts{0, 110, 100, 90, 80, 70}
)

// PowerStats summarises one power population.
type PowerStats struct {
	Mean float64
	Std  float64
	Vp   float64
}

func powerStats(xs []float64) PowerStats {
	s := stats.MustSummarize(xs)
	return PowerStats{Mean: s.Mean, Std: s.Std, Vp: s.Variation()}
}

// Fig2iModule is one module's uncapped power breakdown.
type Fig2iModule struct {
	ModuleID int
	CPU      float64
	Dram     float64
	Module   float64
}

// Fig2iResult is one panel of Figure 2(i): uncapped power characteristics.
type Fig2iResult struct {
	Bench   string
	Modules []Fig2iModule
	CPU     PowerStats
	Dram    PowerStats
	Module  PowerStats
}

// Figure2i reproduces Figure 2(i): per-module CPU, DRAM and module power of
// uncapped *DGEMM and MHD across the HA8K modules.
func Figure2i(o Options) ([]Fig2iResult, error) {
	o = o.withDefaults()
	sys, ids, err := o.haSystem()
	if err != nil {
		return nil, err
	}
	var out []Fig2iResult
	for _, b := range []*workload.Benchmark{workload.DGEMM(), workload.MHD()} {
		res, err := measure.Run(sys, measure.Config{
			Bench: b, Modules: ids, Mode: measure.ModeUncapped,
			Recorder: o.Recorder, RecordLabel: b.Name + "/uncapped", Trace: o.Trace,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 2(i) %s: %w", b.Name, err)
		}
		r := Fig2iResult{Bench: b.Name, Modules: make([]Fig2iModule, len(ids))}
		cpu := make([]float64, len(ids))
		dram := make([]float64, len(ids))
		mod := make([]float64, len(ids))
		for i, rank := range res.Ranks {
			cpu[i] = float64(rank.Op.CPUPower)
			dram[i] = float64(rank.Op.DramPower)
			mod[i] = cpu[i] + dram[i]
			r.Modules[i] = Fig2iModule{ModuleID: rank.ModuleID, CPU: cpu[i], Dram: dram[i], Module: mod[i]}
		}
		r.CPU = powerStats(cpu)
		r.Dram = powerStats(dram)
		r.Module = powerStats(mod)
		out = append(out, r)
	}
	return out, nil
}

// UniformCap computes the analysis section's offline Ccpu for a uniform
// per-module constraint Cm: the CPU cap such that Ccpu plus the DRAM power
// predicted at the resulting operating point equals Cm. Closed form on the
// application's average linear model.
func UniformCap(avg core.PMTEntry, cm units.Watts) units.Watts {
	pcMin, pcMax := float64(avg.CPUMin), float64(avg.CPUMax)
	pdMin, pdMax := float64(avg.DramMin), float64(avg.DramMax)
	dc := pcMax - pcMin
	dd := pdMax - pdMin
	if dc <= 0 {
		return cm - units.Watts(pdMin)
	}
	ccpu := (float64(cm) - pdMin + dd*pcMin/dc) / (1 + dd/dc)
	alpha := (ccpu - pcMin) / dc
	switch {
	case alpha > 1:
		ccpu = float64(cm) - pdMax
	case alpha < 0:
		ccpu = float64(cm) - pdMin
	}
	return units.Watts(ccpu)
}

// Fig2Cluster is one cap level's population summary for Figures 2(ii) and
// 2(iii): CPU frequency/power spread and normalised-time/module-power
// spread under a uniform cap of Cm per module (Cm = 0 means uncapped).
type Fig2Cluster struct {
	Cm   units.Watts
	Ccpu units.Watts

	MeanFreqGHz float64
	Vf          float64

	CPUPower    PowerStats
	ModulePower PowerStats

	// MeanNormTime and Vt summarise per-rank execution time normalised to
	// the same rank's uncapped time (Figure 2(iii)).
	MeanNormTime float64
	Vt           float64
}

// Fig2SweepResult is one benchmark's cap sweep.
type Fig2SweepResult struct {
	Bench    string
	Clusters []Fig2Cluster
}

// Figure2Sweep reproduces Figures 2(ii) and 2(iii): uniform per-module caps
// applied to *DGEMM and MHD, reporting the frequency variation Vf, power
// variation Vp and execution-time variation Vt at each level.
func Figure2Sweep(o Options) ([]Fig2SweepResult, error) {
	o = o.withDefaults()
	sys, ids, err := o.haSystem()
	if err != nil {
		return nil, err
	}
	cases := []struct {
		bench *workload.Benchmark
		caps  []units.Watts
	}{
		{workload.DGEMM(), fig2DGEMMCaps},
		{workload.MHD(), fig2MHDCaps},
	}
	var out []Fig2SweepResult
	for _, c := range cases {
		sweep, err := capSweep(sys, ids, c.bench, c.caps, o.Workers, o.Recorder)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 2 sweep %s: %w", c.bench.Name, err)
		}
		out = append(out, sweep)
	}
	return out, nil
}

// capSweep runs one benchmark at each uniform Cm level and summarises.
// The runs execute serially, so an attached recorder produces one timeline
// segment per level in sweep order.
func capSweep(sys *cluster.System, ids []int, bench *workload.Benchmark, cms []units.Watts, workers int, rec *flight.Recorder) (Fig2SweepResult, error) {
	// Offline analysis: the application's average power model, used to
	// split Cm between CPU cap and predicted DRAM.
	pmt, err := core.OraclePMTWorkers(sys, bench, ids, workers)
	if err != nil {
		return Fig2SweepResult{}, err
	}
	avg := pmt.Averages()

	base, err := measure.Run(sys, measure.Config{
		Bench: bench, Modules: ids, Mode: measure.ModeUncapped,
		Recorder: rec, RecordLabel: bench.Name + "/uncapped",
	})
	if err != nil {
		return Fig2SweepResult{}, err
	}

	out := Fig2SweepResult{Bench: bench.Name}
	for _, cm := range cms {
		var res measure.Result
		var ccpu units.Watts
		if cm == 0 {
			res = base
		} else {
			ccpu = UniformCap(avg, cm)
			caps := make([]units.Watts, len(ids))
			for i := range caps {
				caps[i] = ccpu
			}
			res, err = measure.Run(sys, measure.Config{
				Bench: bench, Modules: ids, Mode: measure.ModeCapped, CPUCaps: caps,
				Recorder: rec, RecordLabel: fmt.Sprintf("%s/Cm=%.0fW", bench.Name, float64(cm)),
			})
			if err != nil {
				return Fig2SweepResult{}, fmt.Errorf("Cm=%v: %w", cm, err)
			}
		}
		cl := Fig2Cluster{Cm: cm, Ccpu: ccpu}
		freqs := make([]float64, len(ids))
		cpu := make([]float64, len(ids))
		mod := make([]float64, len(ids))
		norm := make([]float64, len(ids))
		for i, r := range res.Ranks {
			freqs[i] = r.Op.Freq.GHz()
			cpu[i] = float64(r.Op.CPUPower)
			mod[i] = float64(r.Op.ModulePower())
			norm[i] = float64(r.End) / float64(base.Ranks[i].End)
		}
		fs := stats.MustSummarize(freqs)
		cl.MeanFreqGHz = fs.Mean
		cl.Vf = fs.Variation()
		cl.CPUPower = powerStats(cpu)
		cl.ModulePower = powerStats(mod)
		ts := stats.MustSummarize(norm)
		cl.MeanNormTime = ts.Mean
		cl.Vt = ts.Variation()
		out.Clusters = append(out.Clusters, cl)
	}
	return out, nil
}

// RenderFigure2i writes the Figure 2(i) summary.
func RenderFigure2i(w io.Writer, results []Fig2iResult) error {
	t := report.NewTable("Figure 2(i): Uncapped Module Power Characteristics (HA8K)",
		"Benchmark", "Domain", "Average [W]", "Std dev", "Vp")
	for _, r := range results {
		for _, row := range []struct {
			dom string
			ps  PowerStats
		}{
			{"Module (CPU+DRAM)", r.Module},
			{"CPU", r.CPU},
			{"DRAM", r.Dram},
		} {
			t.AddRow(r.Bench, row.dom,
				report.Cellf(row.ps.Mean, 1), report.Cellf(row.ps.Std, 2), report.Cellf(row.ps.Vp, 2))
		}
	}
	return t.Render(w)
}

// RenderFigure2Sweep writes the Figure 2(ii)+(iii) summary.
func RenderFigure2Sweep(w io.Writer, results []Fig2SweepResult) error {
	t := report.NewTable("Figure 2(ii)/(iii): Variation under Uniform Module Power Constraints (HA8K)",
		"Benchmark", "Cm", "Ccpu", "Mean freq", "Vf", "Vp(cpu)", "Vt", "Vp(module)")
	for _, r := range results {
		for _, c := range r.Clusters {
			cm := "none"
			ccpu := "-"
			if c.Cm != 0 {
				cm = fmt.Sprintf("%.0f W", float64(c.Cm))
				ccpu = fmt.Sprintf("%.1f W", float64(c.Ccpu))
			}
			t.AddRow(r.Bench, cm, ccpu,
				report.Cellf(c.MeanFreqGHz, 2)+" GHz",
				report.Cellf(c.Vf, 2), report.Cellf(c.CPUPower.Vp, 2),
				report.Cellf(c.Vt, 2), report.Cellf(c.ModulePower.Vp, 2))
		}
	}
	return t.Render(w)
}
