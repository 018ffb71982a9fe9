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
	"io"
	"os"
	"strings"

	"varpower/internal/cliutil"
	"varpower/internal/experiments"
	"varpower/internal/report"
)

func main() {
	var (
		exp     = flag.String("experiment", "all", experimentUsage())
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
		err = run(os.Stdout, strings.ToLower(*exp), o)
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

// An experiment is one section of varsim's output.
type experiment struct {
	name, title string
	// explicitOnly experiments run only when named: "all" skips them.
	explicitOnly bool
	show         showFunc
}

// A showFunc prints an experiment's section under its title. grid is the
// evaluation grid that fig7, fig8 and fig9 share; it is nil until the
// first of them builds it.
type showFunc func(w io.Writer, title string, o experiments.Options, grid **experiments.EvalGrid) error

// experimentTable lists varsim's experiments; "all" prints its entries
// in this order. The package comment says why "all" leaves out each
// explicit-only entry.
var experimentTable = []experiment{
	{"table1", "Table 1", false, static(experiments.RenderTable1)},
	{"table2", "Table 2", false, static(experiments.RenderTable2)},
	{"table3", "Table 3", false, static(experiments.RenderTable3)},
	{"fig4", "Figure 4", false, static(experiments.RenderFigure4)},
	{"fig1", "Figure 1", false, computed(experiments.Figure1, experiments.RenderFigure1, plotFigure1)},
	{"fig2", "Figure 2", false, showFigure2},
	{"fig3", "Figure 3", false, computed(experiments.Figure3, experiments.RenderFigure3, nil)},
	{"fig5", "Figure 5", false, computed(experiments.Figure5, experiments.RenderFigure5, plotFigure5)},
	{"fig6", "Figure 6", false, computed(experiments.Figure6, experiments.RenderFigure6, nil)},
	{"table4", "Table 4", false, computed(experiments.Table4, experiments.RenderTable4, nil)},
	{"fig7", "Figure 7", false, gridView(experiments.Figure7, experiments.RenderFigure7)},
	{"fig8", "Figure 8", false, gridView(experiments.Figure8, experiments.RenderFigure8)},
	{"fig9", "Figure 9", false, gridView(experiments.Figure9, experiments.RenderFigure9)},
	{"vt-timeline", "Vt timeline", true, computed(experiments.VtTimeline, experiments.RenderVtTimeline, nil)},
	{"resilience", "Resilience", true, computed(experiments.Resilience, experiments.RenderResilience, nil)},
	{"fleet", "Fleet", true, computed(experiments.Fleet, experiments.RenderFleet, nil)},
	{"drift", "Drift", true, computed(experiments.Drift, experiments.RenderDrift, nil)},
	{"hetero", "Hetero", true, computed(experiments.Hetero, experiments.RenderHetero, nil)},
}

// experimentUsage is the -experiment flag's help text.
func experimentUsage() string {
	all := []string{"all"}
	var named []string
	for _, e := range experimentTable {
		if e.explicitOnly {
			named = append(named, e.name)
		} else {
			all = append(all, e.name)
		}
	}
	return "which artifact to reproduce (" + strings.Join(all, ", ") + "; only when named: " + strings.Join(named, ", ") + ")"
}

// run prints the experiment named exp, or with "all" every experiment
// that is not explicit-only.
func run(w io.Writer, exp string, o experiments.Options) error {
	var grid *experiments.EvalGrid
	ran := false
	for _, e := range experimentTable {
		if exp != e.name && (exp != "all" || e.explicitOnly) {
			continue
		}
		ran = true
		if err := e.show(w, e.title, o, &grid); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// static shows a table that needs no computation.
func static(render func(io.Writer) error) showFunc {
	return func(w io.Writer, title string, _ experiments.Options, _ **experiments.EvalGrid) error {
		report.Section(w, title)
		return render(w)
	}
}

// computed shows an experiment computed from the options: the header,
// the computation's table and, with -plot, its plot when it has one.
func computed[T any](compute func(experiments.Options) (T, error), render, plot func(io.Writer, T) error) showFunc {
	return func(w io.Writer, title string, o experiments.Options, _ **experiments.EvalGrid) error {
		report.Section(w, title)
		v, err := compute(o)
		if err != nil {
			return err
		}
		if err := render(w, v); err != nil {
			return err
		}
		if plot == nil || !plotShapes {
			return nil
		}
		fmt.Fprintln(w)
		return plot(w, v)
	}
}

// gridView shows a view of the evaluation grid, which the first view
// builds before its header.
func gridView[T any](view func(*experiments.EvalGrid) (T, error), render func(io.Writer, T) error) showFunc {
	return func(w io.Writer, title string, o experiments.Options, grid **experiments.EvalGrid) error {
		if *grid == nil {
			g, err := experiments.EvaluationGrid(o)
			if err != nil {
				return err
			}
			*grid = g
		}
		report.Section(w, title)
		v, err := view(*grid)
		if err != nil {
			return err
		}
		return render(w, v)
	}
}

// showFigure2 prints Figure 2's two panels: the per-module spread of (i),
// then the cap sweep of (ii) and, with -plot, its plot.
func showFigure2(w io.Writer, title string, o experiments.Options, grid **experiments.EvalGrid) error {
	if err := computed(experiments.Figure2i, experiments.RenderFigure2i, nil)(w, title, o, grid); err != nil {
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
	if !plotShapes {
		return nil
	}
	fmt.Fprintln(w)
	return plotFigure2ii(w, sweep)
}
