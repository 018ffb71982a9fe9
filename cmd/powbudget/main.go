// Command powbudget runs the variation-aware power budgeting pipeline for
// one application and constraint, printing the derived α, the common target
// frequency, and the per-module power allocations — the output a job
// prologue would apply via RAPL or cpufreq.
//
// Usage:
//
//	powbudget [-bench dgemm|stream|ep|mhd|bt|sp|mvmc] [-budget watts]
//	          [-modules N] [-scheme vapc|vafs|...] [-system NAME]
//	          [-splitter uniform|proportional|efficiency|greedy]
//	          [-seed S] [-show K]
//	          [-workers W] [-faults FILE] [-record FILE] [-record-hz HZ]
//	          [-metrics FILE] [-telemetry] [-http ADDR]
//	          [-quiet] [-v]
//
// -system selects the machine preset (default HA8K; any cluster preset
// name or alias, e.g. "hybrid" for HA8K-hybrid, "summit" for Summit-lite).
// On a heterogeneous CPU+GPU preset the pipeline becomes hierarchical: the
// budget is first split across the device classes by the -splitter policy
// (default greedy), then each class runs its own α-solve, and the output
// adds the class budgets, the GPU α and locked SM clock, and the
// per-device power limits. -splitter is rejected on CPU-only systems.
//
// -record additionally *executes* the solved allocation with the flight
// recorder attached — the prologue normally stops at the allocation — and
// writes the run's timeline at exit (Perfetto trace JSON by default,
// CSV/HTML by extension); the allocation output itself is unchanged. The
// overprovisioning sweep fans its points out across system replicas and
// stays unrecorded.
//
// -workers bounds the per-module fan-out of PVT generation and oracle
// measurement (0 = GOMAXPROCS, 1 = serial); allocations are byte-identical
// for every width.
//
// With -sweep "48,64,96,...", it instead strong-scales the job across the
// listed module counts under the same budget and reports which
// configuration is fastest — the hardware-overprovisioning question (see
// internal/overprov).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"varpower/internal/cliutil"
	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/overprov"
	"varpower/internal/report"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "dgemm", "benchmark name")
		budgetStr = flag.String("budget", "134kW", "application power constraint, e.g. 134kW")
		modules   = flag.Int("modules", 1920, "modules allocated to the job")
		scheme    = flag.String("scheme", "vapc", "scheme (naive, pc, vapc, vapcor, vafs, vafsor)")
		system    = flag.String("system", "ha8k", "machine preset or alias (see cluster presets; hybrid presets enable hierarchical budgeting)")
		splitter  = flag.String("splitter", "", "class-budget split policy on hybrid presets (uniform, proportional, efficiency, greedy; default greedy)")
		seed      = flag.Uint64("seed", 0x5c15, "system seed")
		show      = flag.Int("show", 8, "how many per-module allocations to print")
		sweep     = flag.String("sweep", "", "comma-separated module counts for an overprovisioning sweep (strong-scales the job; -modules becomes the reference count)")
		workers   = flag.Int("workers", 0, "per-module fan-out width (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		obs       = cliutil.AddFlags(flag.CommandLine)
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "powbudget:", err)
		os.Exit(1)
	}
	if err := obs.Start("powbudget"); err != nil {
		fail(err)
	}
	// Hybrid presets are whole-machine by default; an explicit -modules
	// still selects a partial allocation.
	n := *modules
	if spec, serr := cluster.SpecByName(*system); serr == nil && spec.Hybrid() {
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "modules" {
				explicit = true
			}
		})
		if !explicit {
			n = spec.TotalModules()
		}
	}
	var err error
	if *sweep != "" {
		err = runSweep(*benchName, *budgetStr, n, *sweep, *seed, *workers, obs)
	} else {
		err = run(*benchName, *budgetStr, *system, n, *scheme, *splitter, *seed, *show, *workers, obs)
	}
	if cerr := obs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
}

// runSweep answers the overprovisioning question: under this budget, how
// many modules should the job use?
func runSweep(benchName, budgetStr string, refModules int, sweep string, seed uint64, workers int, obs *cliutil.Obs) error {
	bench, err := workload.ByName(benchName)
	if err != nil {
		return err
	}
	budget, err := units.ParseWatts(budgetStr)
	if err != nil {
		return err
	}
	var counts []int
	maxCount := refModules
	for _, part := range strings.Split(sweep, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil {
			return fmt.Errorf("bad sweep entry %q", part)
		}
		counts = append(counts, n)
		if n > maxCount {
			maxCount = n
		}
	}
	sys, err := cluster.New(cluster.HA8K(), maxCount, seed)
	if err != nil {
		return err
	}
	if in := obs.Injector(); in != nil {
		sys.InstallFaults(in)
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, workers)
	if err != nil {
		return err
	}
	fw.Trace = obs.Trace()
	res, err := overprov.Analyze(fw, bench, budget, refModules, counts, core.VaFs)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("%s under %v, strong-scaled from %d reference ranks", bench.Name, budget, refModules),
		"Modules", "W/module", "alpha", "Freq", "Elapsed", "Note")
	for i, p := range res.Points {
		note := ""
		if !p.Feasible {
			t.AddRow(fmt.Sprint(p.Modules), report.Cellf(float64(p.CmAvg), 1), "-", "-", "-", "infeasible (below fmin power)")
			continue
		}
		if !p.Constrained {
			note = "unconstrained (budget exceeds demand)"
		}
		if i == res.Best {
			note = "<== optimal"
		}
		t.AddRow(fmt.Sprint(p.Modules), report.Cellf(float64(p.CmAvg), 1),
			report.Cellf(p.Alpha, 3), p.Freq.String(),
			fmt.Sprintf("%.1f s", float64(p.Elapsed)), note)
	}
	return t.Render(os.Stdout)
}

func parseScheme(s string) (core.Scheme, error) {
	return core.SchemeByName(s)
}

func run(benchName, budgetStr, systemName string, modules int, schemeName, splitterName string, seed uint64, show, workers int, obs *cliutil.Obs) error {
	bench, err := workload.ByName(benchName)
	if err != nil {
		return err
	}
	budget, err := units.ParseWatts(budgetStr)
	if err != nil {
		return err
	}
	scheme, err := parseScheme(schemeName)
	if err != nil {
		return err
	}
	spec, err := cluster.SpecByName(systemName)
	if err != nil {
		return err
	}
	if !spec.Hybrid() && splitterName != "" {
		return fmt.Errorf("-splitter applies to hybrid CPU+GPU presets; %s is CPU-only", spec.Name)
	}
	sys, err := cluster.New(spec, modules, seed)
	if err != nil {
		return err
	}
	// -faults: budget against failing hardware — quarantined PVT entries,
	// retried sensor reads, and (with -record) a degraded recorded run.
	if in := obs.Injector(); in != nil {
		sys.InstallFaults(in)
	}
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		return err
	}
	if spec.Hybrid() {
		return runHetero(sys, bench, ids, budget, scheme, splitterName, show, workers, obs)
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, workers)
	if err != nil {
		return err
	}
	fw.Trace = obs.Trace()
	pmt, err := fw.BuildPMT(bench, ids, scheme)
	if err != nil {
		return err
	}
	alloc, err := core.Solve(pmt, sys.Spec.Arch, budget)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark    : %s\n", bench.Name)
	fmt.Printf("scheme       : %v\n", scheme)
	fmt.Printf("budget       : %v for %d modules (avg %.1f W/module)\n",
		budget, modules, float64(budget)/float64(modules))
	fmt.Printf("alpha        : %.4f\n", alloc.Alpha)
	fmt.Printf("target freq  : %v", alloc.Freq)
	if scheme.UsesFS() {
		fmt.Printf("  (P-state %v)", sys.Spec.Arch.QuantizeDown(alloc.Freq))
	}
	fmt.Println()
	fmt.Printf("feasible     : %v   constrained: %v\n", alloc.Feasible, alloc.Constrained)
	fmt.Printf("predicted sum: %v\n\n", alloc.TotalPredicted())

	if !alloc.Feasible {
		fmt.Println("budget is below the fmin power of the allocation; the job cannot run")
		return nil
	}
	if show > len(alloc.Entries) {
		show = len(alloc.Entries)
	}
	t := report.NewTable(fmt.Sprintf("First %d module allocations", show),
		"Module", "Pmodule [W]", "Pcpu cap [W]", "Pdram [W]")
	for _, e := range alloc.Entries[:show] {
		t.AddRow(fmt.Sprint(e.ModuleID),
			report.Cellf(float64(e.Pmodule), 2),
			report.Cellf(float64(e.Pcpu), 2),
			report.Cellf(float64(e.Pdram), 2))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// With -record, also execute the solved allocation so the flight
	// recorder has a run to capture; the allocation output above is the
	// same either way.
	if rec := obs.Recorder(); rec != nil {
		fw.Recorder = rec
		res, err := fw.Execute(bench, ids, alloc, scheme)
		if err != nil {
			return err
		}
		fmt.Printf("\nrecorded run : %.1f s elapsed, avg power %v\n",
			float64(res.Elapsed), res.AvgTotalPower)
	}
	return nil
}

// runHetero is the hierarchical pipeline for hybrid CPU+GPU presets: split
// the budget across the device classes, α-solve each class, and print both
// classes' allocations.
func runHetero(sys *cluster.System, bench *workload.Benchmark, ids []int,
	budget units.Watts, scheme core.Scheme, splitterName string, show, workers int, obs *cliutil.Obs) error {
	if splitterName == "" {
		splitterName = core.SplitGreedy.String()
	}
	split, err := core.SplitterByName(splitterName)
	if err != nil {
		return err
	}
	hf, err := core.NewHeteroFramework(sys, nil, workers)
	if err != nil {
		return err
	}
	hf.Trace = obs.Trace()
	devs := hf.AllDevices()
	alloc, _, _, err := hf.SolveHetero(bench, ids, devs, budget, scheme, split)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark    : %s\n", bench.Name)
	fmt.Printf("system       : %s (%d modules + %d GPUs)\n", sys.Spec.Name, len(ids), len(devs))
	fmt.Printf("scheme       : %v   splitter: %v\n", scheme, split)
	fmt.Printf("budget       : %v  ->  cpu %v + gpu %v\n", budget, alloc.CPUBudget, alloc.GPUBudget)
	fmt.Printf("cpu alpha    : %.4f   target freq %v\n", alloc.CPU.Alpha, alloc.CPU.Freq)
	fmt.Printf("gpu alpha    : %.4f   locked SM clock %v\n", alloc.GPU.Alpha, alloc.GPU.Freq)
	fmt.Printf("feasible     : cpu %v, gpu %v   predicted time %.1f s\n",
		alloc.CPU.Feasible, alloc.GPU.Feasible, float64(alloc.PredictedTime))
	fmt.Printf("predicted sum: %v\n\n", alloc.CPU.TotalPredicted()+alloc.GPU.TotalPredicted())
	if !alloc.CPU.Feasible || !alloc.GPU.Feasible {
		fmt.Println("a class budget is below its floor; the job cannot run")
		return nil
	}
	if len(hf.GPVT.Quarantined) > 0 {
		fmt.Printf("quarantined GPUs: %v\n\n", hf.GPVT.Quarantined)
	}
	if show > len(alloc.GPU.Entries) {
		show = len(alloc.GPU.Entries)
	}
	t := report.NewTable(fmt.Sprintf("First %d GPU power limits", show),
		"Device", "Plimit [W]")
	for _, e := range alloc.GPU.Entries[:show] {
		t.AddRow(fmt.Sprint(e.ModuleID), report.Cellf(float64(e.Pmodule), 2))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	// With -record, execute the hierarchical allocation so both classes'
	// activity lands on the flight recorder's timeline.
	if rec := obs.Recorder(); rec != nil {
		hf.Recorder = rec
		res, err := hf.ExecuteHetero(bench, ids, devs, alloc, scheme)
		if err != nil {
			return err
		}
		fmt.Printf("\nrecorded run : %.1f s elapsed, avg power %v\n",
			float64(res.Elapsed), res.AvgPower)
	}
	return nil
}
