// Command varsched runs the power-aware resource manager on a batch of
// jobs described in JSON — the scheduler extension of the paper's future
// work (see internal/sched).
//
// Usage:
//
//	varsched -jobs batch.json [-modules N] [-power 12.5kW] [-system NAME]
//	         [-policy equal|global-alpha] [-alloc first-fit|efficient]
//	         [-scheme vafs|vapc|naive|...] [-seed S] [-faults FILE]
//	         [-record FILE] [-record-hz HZ]
//	         [-metrics FILE] [-telemetry] [-http ADDR] [-quiet] [-v]
//
// -system selects the machine preset (default HA8K; any cluster preset
// name or alias, including the hybrid CPU+GPU presets — the scheduler
// places jobs on the CPU modules either way).
//
// -record attaches the flight recorder to every job's final application run
// and writes the batch timeline at exit (Perfetto trace JSON by default,
// CSV/HTML by extension). Recording runs the jobs serially so the trace is
// deterministic; the rendered batch table is byte-identical either way.
//
// Batch file format:
//
//	[
//	  {"name": "plasma", "bench": "mhd", "modules": 64},
//	  {"name": "linpack", "bench": "dgemm", "modules": 64}
//	]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"varpower/internal/cliutil"
	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/report"
	"varpower/internal/sched"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// jobJSON is one batch entry.
type jobJSON struct {
	Name    string `json:"name"`
	Bench   string `json:"bench"`
	Modules int    `json:"modules"`
}

func main() {
	var (
		jobsFile = flag.String("jobs", "", "JSON batch description (required)")
		modules  = flag.Int("modules", 192, "machine size in modules")
		system   = flag.String("system", "ha8k", "machine preset or alias (see cluster presets)")
		powerStr = flag.String("power", "", "system power constraint (default 70 W/module)")
		policy   = flag.String("policy", "global-alpha", "power split policy (equal, global-alpha)")
		alloc    = flag.String("alloc", "first-fit", "module placement (first-fit, efficient)")
		scheme   = flag.String("scheme", "vafs", "per-job budgeting scheme")
		seed     = flag.Uint64("seed", 0x5c15, "system seed")
		workers  = flag.Int("workers", 0, "fan-out width for PVT generation and concurrent jobs (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		obs      = cliutil.AddFlags(flag.CommandLine)
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "varsched:", err)
		os.Exit(1)
	}
	if err := obs.Start("varsched"); err != nil {
		fail(err)
	}
	err := run(*jobsFile, *system, *modules, *powerStr, *policy, *alloc, *scheme, *seed, *workers, obs)
	if cerr := obs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
}

func run(jobsFile, systemName string, modules int, powerStr, policyName, allocName, schemeName string, seed uint64, workers int, obs *cliutil.Obs) error {
	if jobsFile == "" {
		return fmt.Errorf("-jobs is required")
	}
	f, err := os.Open(jobsFile)
	if err != nil {
		return err
	}
	defer f.Close()
	var raw []jobJSON
	if err := json.NewDecoder(f).Decode(&raw); err != nil {
		return fmt.Errorf("parse %s: %w", jobsFile, err)
	}
	if len(raw) == 0 {
		return fmt.Errorf("%s describes no jobs", jobsFile)
	}
	jobs := make([]sched.Job, len(raw))
	for i, j := range raw {
		bench, err := workload.ByName(j.Bench)
		if err != nil {
			return fmt.Errorf("job %q: %w", j.Name, err)
		}
		jobs[i] = sched.Job{Name: j.Name, Bench: bench, Modules: j.Modules}
	}

	cfg := sched.Config{}
	switch strings.ToLower(policyName) {
	case "equal", "equal-per-module":
		cfg.Policy = sched.SplitEqualPerModule
	case "global-alpha", "global":
		cfg.Policy = sched.SplitGlobalAlpha
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	switch strings.ToLower(allocName) {
	case "first-fit", "firstfit":
		cfg.Alloc = sched.AllocFirstFit
	case "efficient", "efficient-first":
		cfg.Alloc = sched.AllocEfficient
	default:
		return fmt.Errorf("unknown placement %q", allocName)
	}
	found := false
	for _, s := range core.AllSchemes() {
		if strings.EqualFold(s.String(), schemeName) {
			cfg.Scheme = s
			found = true
		}
	}
	if !found {
		return fmt.Errorf("unknown scheme %q", schemeName)
	}
	if powerStr == "" {
		cfg.SystemPower = units.Watts(70 * float64(modules))
	} else {
		cfg.SystemPower, err = units.ParseWatts(powerStr)
		if err != nil {
			return err
		}
	}

	spec, err := cluster.SpecByName(systemName)
	if err != nil {
		return err
	}
	sys, err := cluster.New(spec, modules, seed)
	if err != nil {
		return err
	}
	// -faults: schedule the batch on failing hardware (see internal/faults).
	if in := obs.Injector(); in != nil {
		sys.InstallFaults(in)
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, workers)
	if err != nil {
		return err
	}
	// With -record, every job's final run lands in the flight recorder (the
	// scheduler serialises the batch to keep the trace deterministic).
	fw.Recorder = obs.Recorder()
	fw.Trace = obs.Trace()
	res, err := sched.New(fw).Run(jobs, cfg)
	if err != nil {
		return err
	}

	t := report.NewTable(
		fmt.Sprintf("batch under %v (%v split, %v placement, %v)",
			cfg.SystemPower, cfg.Policy, cfg.Alloc, cfg.Scheme),
		"Job", "Modules", "Budget", "alpha", "Freq", "Elapsed", "Power")
	for _, jr := range res.Jobs {
		t.AddRow(jr.Job.Name, fmt.Sprint(len(jr.Modules)), jr.Budget.String(),
			report.Cellf(jr.Run.Alloc.Alpha, 3), jr.Run.Alloc.Freq.String(),
			fmt.Sprintf("%.1f s", float64(jr.Run.Elapsed())),
			fmt.Sprintf("%.2f kW", jr.Run.Result.AvgTotalPower.KW()))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nmakespan %.1f s   system power %.2f/%.2f kW   throughput %.1f jobs/h\n",
		float64(res.Makespan), res.TotalPower.KW(), cfg.SystemPower.KW(), res.Throughput())
	return nil
}
