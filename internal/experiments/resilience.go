package experiments

import (
	"context"
	"fmt"
	"io"

	"varpower/internal/core"
	"varpower/internal/faults"
	"varpower/internal/measure"
	"varpower/internal/parallel"
	"varpower/internal/report"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// ResilienceSchemes are the schemes the resilience experiment compares: the
// baseline and the paper's two practical variation-aware schemes.
var ResilienceSchemes = []core.Scheme{core.Naive, core.VaPc, core.VaFs}

// ResilienceCs is the paper-scale system constraint the resilience runs use
// (80 W per module — mid-table, feasible for every benchmark).
var ResilienceCs = units.Watts(80 * 1920)

// resilienceHorizon is the virtual-seconds extent generated fault plans
// target. MHD at the experiment's scales runs for tens of virtual seconds,
// so windows and deaths placed inside this horizon land mid-run.
const resilienceHorizon = 10

// resilienceRates returns the generated fault-level ladder — the shared
// faults.Ladder vocabulary, placed inside this experiment's horizon.
// Probabilities are per-module incidences, so expected fault counts scale
// with the module count.
func resilienceRates() []faults.Level {
	return faults.Ladder(resilienceHorizon)
}

// ResilienceCell is one (fault level, scheme) evaluation.
type ResilienceCell struct {
	Level  string
	Scheme core.Scheme
	// Elapsed is the reported run time: the degraded re-run's when modules
	// died, the original run's otherwise.
	Elapsed units.Seconds
	// Dead is how many modules died during the original run.
	Dead int
	// Recovered is the power the re-solve freed from dead modules.
	Recovered units.Watts
	// Degraded counts modules that finished with a non-OK health verdict.
	Degraded int
	// ReAlpha is the re-solved α (0 when nothing died).
	ReAlpha float64
	Err     error
}

// ResilienceLevel is one fault level's full evaluation.
type ResilienceLevel struct {
	Name string
	// Events is the fault plan's event count at this level.
	Events int
	// Quarantined is how many modules PVT generation quarantined.
	Quarantined int
	Cells       []ResilienceCell
}

// ResilienceResult is the resilience experiment's output.
type ResilienceResult struct {
	Bench  string
	Levels []ResilienceLevel
}

// Speedup returns a scheme's speedup over Naive at the same fault level.
func (r *ResilienceResult) Speedup(level string, scheme core.Scheme) (float64, error) {
	for _, lv := range r.Levels {
		if lv.Name != level {
			continue
		}
		var base, c *ResilienceCell
		for i := range lv.Cells {
			if lv.Cells[i].Scheme == core.Naive {
				base = &lv.Cells[i]
			}
			if lv.Cells[i].Scheme == scheme {
				c = &lv.Cells[i]
			}
		}
		if base == nil || c == nil {
			return 0, fmt.Errorf("experiments: resilience level %s missing scheme", level)
		}
		if base.Err != nil {
			return 0, base.Err
		}
		if c.Err != nil {
			return 0, c.Err
		}
		return float64(base.Elapsed) / float64(c.Elapsed), nil
	}
	return 0, fmt.Errorf("experiments: no resilience level %q", level)
}

// Resilience sweeps fault severity × budgeting scheme on HA8K: per level it
// generates a deterministic fault plan (or, when Options.Faults is set, uses
// that plan as the single faulty level), installs it, regenerates the PVT
// under faults — exercising retry and quarantine — and evaluates each scheme
// with graceful degradation (core.RunResilient): dead modules' allocations
// are re-solved across survivors and the job re-run degraded within the same
// constraint. The healthy "none" level is always included as the reference.
//
// Cells fan out over Options.Workers like the evaluation grid, each on its
// own framework clone; levels run serially. Results are deterministic in
// (seed, options) at any worker count. When Options.Recorder is set the
// cells run serially instead — like varsched's batch — so the recorded
// timeline (including module-death and re-solve events) is deterministic;
// the rendered table is byte-identical either way.
func Resilience(o Options) (*ResilienceResult, error) {
	o = o.withDefaults()
	bench := workload.MHD()
	out := &ResilienceResult{Bench: bench.Name}

	type level struct {
		name string
		plan *faults.Plan
	}
	var levels []level
	if o.Faults != nil && !o.Faults.Empty() {
		name := o.Faults.Name
		if name == "" {
			name = "plan"
		}
		levels = []level{{name: "none"}, {name: name, plan: o.Faults}}
	} else {
		for _, r := range resilienceRates() {
			p, err := faults.Generate(o.Seed, r.Spec, o.HA8KModules)
			if err != nil {
				return nil, fmt.Errorf("experiments: resilience %s plan: %w", r.Name, err)
			}
			levels = append(levels, level{name: r.Name, plan: p})
		}
	}

	budget := CsForScale(ResilienceCs, o.HA8KModules)
	for _, lv := range levels {
		span := o.Trace.Start("resilience.level")
		span.SetAttr("level", lv.name)
		// A fresh system per level: the injector is part of the hardware.
		lo := o
		lo.Faults = lv.plan
		sys, ids, err := lo.haSystem()
		if err != nil {
			span.End()
			return nil, err
		}
		fw, err := core.NewFrameworkWorkers(sys, nil, o.Workers)
		if err != nil {
			span.End()
			return nil, fmt.Errorf("experiments: resilience %s PVT: %w", lv.name, err)
		}
		res := ResilienceLevel{Name: lv.name, Quarantined: len(fw.PVT.Quarantined)}
		if lv.plan != nil {
			res.Events = len(lv.plan.Events)
		}
		workers := o.Workers
		if o.Recorder != nil {
			workers = 1
		}
		pool := core.NewReplicaPool(fw)
		res.Cells, err = parallel.MapCtx(o.stageCtx("resilience "+lv.name), workers,
			len(ResilienceSchemes), func(_ context.Context, i int) (ResilienceCell, error) {
				scheme := ResilienceSchemes[i]
				cell := ResilienceCell{Level: lv.name, Scheme: scheme}
				cfw := pool.Get()
				defer pool.Put(cfw)
				cfw.Recorder = o.Recorder
				cfw.Trace = span
				run, err := cfw.RunResilient(bench, ids, budget, scheme)
				if err != nil {
					cell.Err = err
					return cell, nil
				}
				cell.Elapsed = run.FinalResult().Elapsed
				cell.Dead = len(run.Dead)
				cell.Recovered = run.Recovered
				if run.ReAlloc != nil {
					cell.ReAlpha = run.ReAlloc.Alpha
				}
				for _, h := range run.Result.Health {
					if h.Verdict != measure.VerdictOK {
						cell.Degraded++
					}
				}
				return cell, nil
			})
		span.End()
		if err != nil {
			return nil, err
		}
		out.Levels = append(out.Levels, res)
	}
	return out, nil
}

// RenderResilience writes the resilience table: per fault level, each
// scheme's elapsed time, speedup over Naive at the same level, and the
// degradation counters. The experiment's claim is in the Speedup column:
// variation-aware budgeting keeps beating Naive while the hardware degrades.
func RenderResilience(w io.Writer, r *ResilienceResult) error {
	tbl := report.NewTable(fmt.Sprintf("Resilience: %s under faults", r.Bench),
		"Level", "Events", "Quar", "Scheme", "Elapsed", "vs Naive", "Dead", "Degraded", "Recovered")
	for _, lv := range r.Levels {
		for _, c := range lv.Cells {
			if c.Err != nil {
				tbl.AddRow(lv.Name, fmt.Sprint(lv.Events), fmt.Sprint(lv.Quarantined),
					fmt.Sprint(c.Scheme), "error", "-", "-", "-", c.Err.Error())
				continue
			}
			speed := "-"
			if s, err := r.Speedup(lv.Name, c.Scheme); err == nil {
				speed = report.Cellf(s, 3)
			}
			rec := "-"
			if c.Recovered > 0 {
				rec = report.Cellf(float64(c.Recovered), 1) + " W"
			}
			tbl.AddRow(lv.Name, fmt.Sprint(lv.Events), fmt.Sprint(lv.Quarantined),
				fmt.Sprint(c.Scheme), report.Cellf(float64(c.Elapsed), 3)+" s",
				speed, fmt.Sprint(c.Dead), fmt.Sprint(c.Degraded), rec)
		}
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\n%s under %v system budget; dead modules' allocation re-solved across survivors.\n",
		r.Bench, ResilienceCs)
	return err
}
