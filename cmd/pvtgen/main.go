// Command pvtgen generates a system's Power Variation Table — the
// install-time step of the paper's framework — and writes it as JSON.
//
// Usage:
//
//	pvtgen [-system NAME] [-modules N] [-seed S] [-o file]
//	       [-workers W] [-faults FILE]
//	       [-metrics FILE] [-telemetry] [-http ADDR] [-quiet] [-v]
//
// -system accepts any cluster preset name or alias (ha8k, cab, teller,
// vulcan, HA8K-hybrid/"hybrid", Summit-lite/"summit"). On a hybrid CPU+GPU
// preset the output becomes a combined envelope with "cpu" and "gpu"
// sections — the GPU device class gets its own install-time sweep (locked
// SM clocks standing in for P-states) with the same MAD quarantine rules.
//
// -faults installs a deterministic fault-injection plan (internal/faults)
// before the sweep: modules whose sensors stay implausible through retries
// are quarantined (neutral scales, listed in the table's "quarantined"
// field) instead of failing the whole generation.
//
// -workers bounds the per-module measurement fan-out (0 = GOMAXPROCS,
// 1 = serial); the generated table is byte-identical for every width.
// The observability flags are shared across commands (internal/cliutil);
// -v streams per-module progress of the install-time sweep, the longest
// single phase in the repository at full machine scale. -record/-record-hz
// are accepted for flag uniformity, but the install-time sweep has no
// application runs for the flight recorder to capture — the recorder
// reports an empty timeline and writes nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"varpower/internal/cliutil"
	"varpower/internal/cluster"
	"varpower/internal/config"
	"varpower/internal/core"
	"varpower/internal/parallel"
)

func main() {
	var (
		system  = flag.String("system", "ha8k", "system preset or alias (ha8k, cab, teller, vulcan, hybrid, summit, ...)")
		sysFile = flag.String("system-file", "", "JSON system description (overrides -system)")
		modules = flag.Int("modules", 0, "module count (0 = whole machine)")
		seed    = flag.Uint64("seed", 0x5c15, "system seed")
		out     = flag.String("o", "", "output file (default stdout)")
		workers = flag.Int("workers", 0, "per-module measurement fan-out (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		obs     = cliutil.AddFlags(flag.CommandLine)
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pvtgen:", err)
		os.Exit(1)
	}
	if err := obs.Start("pvtgen"); err != nil {
		fail(err)
	}
	err := run(*system, *sysFile, *modules, *seed, *out, *workers, obs)
	if cerr := obs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
}

func run(system, sysFile string, modules int, seed uint64, out string, workers int, obs *cliutil.Obs) error {
	var spec cluster.Spec
	if sysFile != "" {
		f, err := os.Open(sysFile)
		if err != nil {
			return err
		}
		spec, err = config.LoadSystem(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		s, err := cluster.SpecByName(system)
		if err != nil {
			return err
		}
		spec = s
	}
	sys, err := cluster.New(spec, modules, seed)
	if err != nil {
		return err
	}
	// -faults: generate the table against failing hardware; persistent
	// sensor faults show up as quarantined entries in the saved PVT.
	if in := obs.Injector(); in != nil {
		sys.InstallFaults(in)
	}
	ctx := obs.Context()
	if fn := obs.ProgressFunc("pvt"); fn != nil {
		ctx = parallel.WithProgress(ctx, fn)
	}
	pvt, err := core.GeneratePVTCtx(ctx, sys, nil, workers)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Hybrid presets get a combined envelope: the CPU table plus the GPU
	// device class's table, each in its own section. CPU-only systems keep
	// the bare PVT format.
	if spec.Hybrid() {
		gpvt, err := core.GenerateGPUPVT(ctx, sys, workers)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			CPU *core.PVT `json:"cpu"`
			GPU gpuTable  `json:"gpu"`
		}{pvt, gpuWire(gpvt)})
	}
	return pvt.Save(w)
}

// gpuTable is the GPU section's wire format: each device's board-power
// scales at the nominal and minimum SM clocks. core keeps them in a PVT's
// CPU fields, with DRAM scales of 1 that the section leaves out.
type gpuTable struct {
	System      string     `json:"system"`
	Kernel      string     `json:"kernel"`
	Entries     []gpuEntry `json:"entries"`
	Quarantined []int      `json:"quarantined,omitempty"`
}

type gpuEntry struct {
	Device   int     `json:"device"`
	PowerMax float64 `json:"power_max"`
	PowerMin float64 `json:"power_min"`
}

// gpuWire renders a device-class PVT in the GPU section's format.
func gpuWire(p *core.PVT) gpuTable {
	t := gpuTable{System: p.System, Kernel: p.Microbenchmark, Quarantined: p.Quarantined}
	t.Entries = make([]gpuEntry, len(p.Entries))
	for i, e := range p.Entries {
		t.Entries[i] = gpuEntry{Device: e.ModuleID, PowerMax: e.CPUMax, PowerMin: e.CPUMin}
	}
	return t
}
