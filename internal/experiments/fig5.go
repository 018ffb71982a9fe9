package experiments

import (
	"fmt"
	"io"

	"varpower/internal/measure"
	"varpower/internal/report"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Fig5Modules is the paper's sample size for the linearity study.
const Fig5Modules = 64

// Fig5Point is one frequency step of the sweep: average powers across the
// sampled modules.
type Fig5Point struct {
	FreqGHz float64
	CPU     float64
	Dram    float64
	Module  float64
}

// Fig5Result is one benchmark's linearity panel: the frequency sweep and
// the least-squares fits validating the paper's linear power model
// (R² ≥ 0.99 in the paper's Figure 5).
type Fig5Result struct {
	Bench  string
	Points []Fig5Point

	CPUFit    stats.LinearFit
	DramFit   stats.LinearFit
	ModuleFit stats.LinearFit

	// MinPerModuleCPUR2 is the worst per-module CPU fit — linearity holds
	// module by module, not just on the average.
	MinPerModuleCPUR2 float64
}

// Figure5 reproduces Figure 5: power versus CPU frequency on 64 HA8K
// modules for *DGEMM and MHD, pinning every P-state in turn and fitting
// P(f) lines.
func Figure5(o Options) ([]Fig5Result, error) {
	o = o.withDefaults()
	sys, _, err := o.haSystem()
	if err != nil {
		return nil, err
	}
	n := Fig5Modules
	if sys.NumModules() < n {
		n = sys.NumModules()
	}
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		return nil, err
	}
	ladder := sys.Spec.Arch.PStates()

	var out []Fig5Result
	for _, b := range []*workload.Benchmark{workload.DGEMM(), workload.MHD()} {
		r := Fig5Result{Bench: b.Name, MinPerModuleCPUR2: 1}
		var fx []float64
		var avgCPU, avgDram, avgMod []float64
		perModCPU := make([][]float64, n)
		for _, f := range ladder {
			freqs := make([]units.Hertz, n)
			for i := range freqs {
				freqs[i] = f
			}
			res, err := measure.Run(sys, measure.Config{Bench: b, Modules: ids, Mode: measure.ModePinned, Freqs: freqs})
			if err != nil {
				return nil, fmt.Errorf("experiments: figure 5 %s at %v: %w", b.Name, f, err)
			}
			// Use the RAPL-counter-measured powers, not the model's exact
			// operating point: measurement includes the dilution of ranks
			// idling at the trailing barrier, so the fits carry realistic
			// (small) residuals like the paper's R² = 0.991–0.999.
			var cpu, dram float64
			for i, rank := range res.Ranks {
				cpu += float64(rank.AvgCPUPower)
				dram += float64(rank.AvgDramPower)
				perModCPU[i] = append(perModCPU[i], float64(rank.AvgCPUPower))
			}
			cpu /= float64(n)
			dram /= float64(n)
			fx = append(fx, f.GHz())
			avgCPU = append(avgCPU, cpu)
			avgDram = append(avgDram, dram)
			avgMod = append(avgMod, cpu+dram)
			r.Points = append(r.Points, Fig5Point{FreqGHz: f.GHz(), CPU: cpu, Dram: dram, Module: cpu + dram})
		}
		if r.CPUFit, err = stats.FitLinear(fx, avgCPU); err != nil {
			return nil, err
		}
		if r.DramFit, err = stats.FitLinear(fx, avgDram); err != nil {
			return nil, err
		}
		if r.ModuleFit, err = stats.FitLinear(fx, avgMod); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			fit, err := stats.FitLinear(fx, perModCPU[i])
			if err != nil {
				return nil, err
			}
			if fit.R2 < r.MinPerModuleCPUR2 {
				r.MinPerModuleCPUR2 = fit.R2
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderFigure5 writes the linearity summary.
func RenderFigure5(w io.Writer, results []Fig5Result) error {
	t := report.NewTable("Figure 5: Power vs CPU Frequency Linearity (64 HA8K modules)",
		"Benchmark", "Domain", "Slope [W/GHz]", "Intercept [W]", "R^2")
	for _, r := range results {
		rows := []struct {
			dom string
			fit stats.LinearFit
		}{
			{"Module", r.ModuleFit}, {"CPU", r.CPUFit}, {"DRAM", r.DramFit},
		}
		for _, row := range rows {
			t.AddRow(r.Bench, row.dom,
				report.Cellf(row.fit.Slope, 2), report.Cellf(row.fit.Intercept, 2),
				report.Cellf(row.fit.R2, 4))
		}
		t.AddRow(r.Bench, "CPU (worst module)", "-", "-", report.Cellf(r.MinPerModuleCPUR2, 4))
	}
	return t.Render(w)
}
