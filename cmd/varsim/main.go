// Command varsim reproduces the paper's tables and figures on the
// simulated systems and prints them as text tables.
//
// Usage:
//
//	varsim [-experiment all|table1|table2|table3|fig1|fig2|fig3|fig4|fig5|fig6|table4|fig7|fig8|fig9|vt-timeline|resilience|fleet|drift|hetero]
//	       [-modules N] [-system NAME] [-seed S] [-workers W] [-faults FILE]
//	       [-record FILE] [-record-hz HZ] [-attrib FILE] [-attrib-hz HZ]
//	       [-metrics FILE] [-telemetry] [-http ADDR] [-quiet] [-v]
//	       [-log-level LVL]
//
// -modules scales the HA8K experiments (default 1920, the paper's size);
// feasibility boundaries are per-module and therefore scale-invariant.
// -workers bounds the experiment engine's fan-out (0 = GOMAXPROCS,
// 1 = serial); every width renders byte-identical artifacts.
//
// The observability flags (shared across all four commands, see
// internal/cliutil) never change rendered artifacts: -metrics exports the
// telemetry registry at exit (Prometheus text, JSON or CSV by extension),
// -telemetry prints the phase-span timing summary, -http serves /metrics
// and /debug/pprof for the duration of a long sweep, -v streams live
// completed/total progress for grid and Table-4 cells, -quiet silences
// informational stderr output, and -log-level switches stderr to
// structured JSON logs (log/slog) at the given level.
//
// -record attaches the flight recorder to the serially executed runs (the
// Figure 2/3 sweeps and vt-timeline) and writes the captured timeline at
// exit — Chrome trace-event JSON for Perfetto by default, CSV or HTML by
// extension — plus an analyzer report (<path>.report.txt). The
// "vt-timeline" experiment replays the Figure-2 *DGEMM cap sweep with the
// recorder attached and prints the analyzer's windowed Vp/Vf/Vt and
// straggler ranking; it is excluded from "all" because it repeats fig2's
// runs. Recording never changes a rendered table.
//
// -faults loads a deterministic fault-injection plan (JSON, see
// internal/faults) and installs it on every HA8K system the experiments
// build. The "resilience" experiment sweeps fault severity × scheme with
// graceful degradation (dead modules' budgets re-solved across survivors);
// with -faults it evaluates that plan instead of the generated ladder. Like
// vt-timeline it only runs when asked for explicitly.
//
// The "fleet" experiment runs the full pipeline — build, install-time PVT
// sweep, calibration, solve, one measured MHD run — on a 100,000-module
// scaled HA8K system (override with -modules) and prints the result plus a
// wall-clock phase profile; it too only runs when named explicitly.
//
// The "drift" experiment (explicit-only) closes the continuous
// observability loop offline: tenant-labelled jobs on a cluster with
// drifting cap enforcement (-faults overrides the default cap-drift
// ladder) feed the attribution collector, the drift detector flags the
// drifters, and an incremental PVT refresh re-measures only those and
// re-solves the allocation. -attrib exports the per-job energy ledger and
// per-module drift table it produced (JSON or CSV by extension, byte-
// identical run to run); -attrib-hz tunes the collector's sampling rate.
//
// The "hetero" experiment (explicit-only) evaluates hierarchical budgeting
// on a heterogeneous CPU+GPU preset (-system selects it; default
// HA8K-hybrid, "summit" for Summit-lite): the machine budget is first
// split across the device classes by each policy (uniform, proportional,
// efficiency, greedy), then each class runs its own variation-aware
// α-solve, and every (scheme × splitter) cell reports elapsed time, power
// and budget adherence against the Naive/uniform baseline. With -record
// the cells run serially and each run lands GPU counter tracks (board
// power, limits, SM clocks, throttles) on lanes above the CPU modules.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"varpower/internal/cliutil"
	"varpower/internal/experiments"
	"varpower/internal/report"
)

func main() {
	var (
		exp     = flag.String("experiment", "all", "which artifact to reproduce (all, table1, table2, table3, fig1, fig2, fig3, fig4, fig5, fig6, table4, fig7, fig8, fig9, vt-timeline, resilience, fleet, drift, hetero)")
		modules = flag.Int("modules", 1920, "HA8K module count")
		system  = flag.String("system", "", "hybrid preset for -experiment hetero (e.g. hybrid, summit; default HA8K-hybrid)")
		seed    = flag.Uint64("seed", 0, "system seed (0 = default)")
		dump    = flag.String("dump", "", "write every figure's raw data series as CSV files into this directory instead of printing summaries")
		plot    = flag.Bool("plot", false, "also draw ASCII plots of figure shapes (fig1, fig2, fig5)")
		workers = flag.Int("workers", 0, "fan-out width for per-module and per-cell loops (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		obs     = cliutil.AddFlags(flag.CommandLine)
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "varsim:", err)
		os.Exit(1)
	}
	if err := obs.Start("varsim"); err != nil {
		fail(err)
	}
	plotShapes = *plot
	o := experiments.Options{Seed: *seed, HA8KModules: *modules, Workers: *workers, HeteroSystem: *system, Progress: obs.Progress(), Recorder: obs.Recorder(), Faults: obs.FaultPlan(), Attrib: obs.Attrib(), Trace: obs.Trace()}
	// The fleet and hetero experiments default to their own scales;
	// -modules overrides them only when the flag was given explicitly.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "modules" {
			o.FleetModules = *modules
			o.HeteroModules = *modules
		}
	})
	var err error
	if *dump != "" {
		err = dumpAll(*dump, o)
	} else {
		err = run(strings.ToLower(*exp), o)
	}
	if cerr := obs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
}

// plotShapes enables ASCII figure rendering alongside the summary tables.
var plotShapes bool

func run(exp string, o experiments.Options) error {
	w := os.Stdout
	wantAll := exp == "all"
	want := func(name string) bool { return wantAll || exp == name }
	ran := false

	if want("table1") {
		ran = true
		report.Section(w, "Table 1")
		if err := experiments.RenderTable1(w); err != nil {
			return err
		}
	}
	if want("table2") {
		ran = true
		report.Section(w, "Table 2")
		if err := experiments.RenderTable2(w); err != nil {
			return err
		}
	}
	if want("table3") {
		ran = true
		report.Section(w, "Table 3")
		if err := experiments.RenderTable3(w); err != nil {
			return err
		}
	}
	if want("fig4") {
		ran = true
		report.Section(w, "Figure 4")
		if err := experiments.RenderFigure4(w); err != nil {
			return err
		}
	}
	if want("fig1") {
		ran = true
		report.Section(w, "Figure 1")
		series, err := experiments.Figure1(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderFigure1(w, series); err != nil {
			return err
		}
		if plotShapes {
			fmt.Fprintln(w)
			if err := plotFigure1(w, series); err != nil {
				return err
			}
		}
	}
	if want("fig2") {
		ran = true
		report.Section(w, "Figure 2")
		f2i, err := experiments.Figure2i(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderFigure2i(w, f2i); err != nil {
			return err
		}
		fmt.Fprintln(w)
		sweep, err := experiments.Figure2Sweep(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderFigure2Sweep(w, sweep); err != nil {
			return err
		}
		if plotShapes {
			fmt.Fprintln(w)
			if err := plotFigure2ii(w, sweep); err != nil {
				return err
			}
		}
	}
	// vt-timeline repeats fig2's *DGEMM runs with the flight recorder
	// attached, so it only runs when asked for explicitly.
	if exp == "vt-timeline" {
		ran = true
		report.Section(w, "Vt timeline")
		vt, err := experiments.VtTimeline(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderVtTimeline(w, vt); err != nil {
			return err
		}
	}
	// resilience re-runs schemes under injected faults, so — like
	// vt-timeline — it only runs when asked for explicitly.
	if exp == "resilience" {
		ran = true
		report.Section(w, "Resilience")
		r, err := experiments.Resilience(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderResilience(w, r); err != nil {
			return err
		}
	}
	// fleet builds a 100k-module system and runs the whole pipeline on it;
	// it only runs when asked for explicitly.
	if exp == "fleet" {
		ran = true
		report.Section(w, "Fleet")
		fr, err := experiments.Fleet(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderFleet(w, fr); err != nil {
			return err
		}
	}
	// drift runs the continuous attribution → drift-detection →
	// recalibration loop against a cluster with drifting cap enforcement;
	// it only runs when asked for explicitly (its runs repeat fleet-style
	// jobs and it installs a fault plan by default).
	if exp == "drift" {
		ran = true
		report.Section(w, "Drift")
		dr, err := experiments.Drift(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderDrift(w, dr); err != nil {
			return err
		}
	}
	// hetero sweeps (scheme × class-budget splitter) on a hybrid
	// CPU+GPU preset under one machine budget; like fleet it defaults to
	// its own scale and only runs when asked for explicitly.
	if exp == "hetero" {
		ran = true
		report.Section(w, "Hetero")
		hr, err := experiments.Hetero(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderHetero(w, hr); err != nil {
			return err
		}
	}
	if want("fig3") {
		ran = true
		report.Section(w, "Figure 3")
		f3, err := experiments.Figure3(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderFigure3(w, f3); err != nil {
			return err
		}
	}
	if want("fig5") {
		ran = true
		report.Section(w, "Figure 5")
		f5, err := experiments.Figure5(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderFigure5(w, f5); err != nil {
			return err
		}
		if plotShapes {
			fmt.Fprintln(w)
			if err := plotFigure5(w, f5); err != nil {
				return err
			}
		}
	}
	if want("fig6") {
		ran = true
		report.Section(w, "Figure 6")
		f6, err := experiments.Figure6(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderFigure6(w, f6); err != nil {
			return err
		}
	}
	if want("table4") {
		ran = true
		report.Section(w, "Table 4")
		t4, err := experiments.Table4(o)
		if err != nil {
			return err
		}
		if err := experiments.RenderTable4(w, t4); err != nil {
			return err
		}
	}
	if want("fig7") || want("fig8") || want("fig9") {
		ran = true
		grid, err := experiments.EvaluationGrid(o)
		if err != nil {
			return err
		}
		if want("fig7") {
			report.Section(w, "Figure 7")
			f7, err := experiments.Figure7(grid)
			if err != nil {
				return err
			}
			if err := experiments.RenderFigure7(w, f7); err != nil {
				return err
			}
		}
		if want("fig8") {
			report.Section(w, "Figure 8")
			f8, err := experiments.Figure8(grid)
			if err != nil {
				return err
			}
			if err := experiments.RenderFigure8(w, f8); err != nil {
				return err
			}
		}
		if want("fig9") {
			report.Section(w, "Figure 9")
			f9, err := experiments.Figure9(grid)
			if err != nil {
				return err
			}
			if err := experiments.RenderFigure9(w, f9); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
