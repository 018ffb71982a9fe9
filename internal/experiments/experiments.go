// Package experiments reproduces every table and figure of the paper's
// measurement and evaluation sections. Each generator returns a typed
// result that can be rendered as an ASCII table (mirroring the published
// artifact) and is exercised by a benchmark in the repository root's
// bench_test.go.
//
// Experiment index (see DESIGN.md §4 for the full mapping):
//
//	Table1    — power measurement techniques
//	Table2    — architectures under consideration
//	Figure1   — CPU power/performance variation on Cab, Vulcan, Teller
//	Figure2   — module power, frequency and time variation on HA8K
//	Figure3   — synchronisation overhead of MHD under uniform caps
//	Figure5   — linearity of power in CPU frequency
//	Figure6   — PVT→PMT calibration accuracy per application
//	Table4    — feasible/constrained grid of system power constraints
//	Figure7   — speedups of all schemes versus Naive
//	Figure8   — VaFs power/performance characteristics
//	Figure9   — budget adherence of all schemes
package experiments

import (
	"context"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/flight"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/units"
)

// Options scales the experiments. The zero value is replaced by paper-scale
// defaults; tests use reduced sizes.
type Options struct {
	// Seed drives every deterministic draw (module factors, residuals,
	// run noise).
	Seed uint64

	// HA8KModules is the module count for all capping experiments
	// (paper: 1,920).
	HA8KModules int
	// FleetModules is the fleet experiment's system size
	// (default DefaultFleetModules, 100,000).
	FleetModules int
	// CabSockets, VulcanBoards (of 32 nodes each), TellerSockets scale the
	// Figure-1 study (paper: 2,386 / 48 / 64).
	CabSockets    int
	VulcanBoards  int
	TellerSockets int
	// HeteroModules is the hetero experiment's CPU-module count (default
	// DefaultHeteroModules; the GPU population follows from the node
	// count), and HeteroSystem its hybrid preset (default "HA8K-hybrid";
	// any cluster.SpecByName hybrid resolves, e.g. "summit").
	HeteroModules int
	HeteroSystem  string

	// Workers bounds every generator's fan-out — the calibration sweeps
	// (PVT construction, oracle measurement) and the sweep engines (Table
	// 4's rows, the evaluation grid's models and cells, the resilience,
	// overprovisioning and hetero cells, Figure 1's panels): < 1 selects
	// GOMAXPROCS, 1 recovers the serial engine. A measured run resolves
	// and accounts its ranks serially at every width. Per-module RNG
	// streams make the rendered artifacts byte-identical for every worker
	// count.
	Workers int

	// Progress, when non-nil, receives live completion updates from the
	// long generators (the evaluation grid's cells, Table 4's rows): the
	// stage name plus done/total task counts. Calls arrive from worker
	// goroutines; implementations must be concurrency-safe. Progress is
	// presentation-only and cannot perturb any generated artifact.
	Progress func(stage string, done, total int)

	// Recorder, when non-nil, attaches the flight recorder to the
	// *serially executed* application runs (the Figure 2/3 sweeps and the
	// vt-timeline experiment). Generators that fan whole cells out in
	// parallel (the evaluation grid, Table 4, Figure 7) deliberately stay
	// unrecorded — their commit order would depend on scheduling and break
	// trace determinism. Recording is write-only: rendered artifacts are
	// byte-identical with and without it.
	Recorder *flight.Recorder

	// Faults, when non-nil and non-empty, installs a deterministic fault
	// injector (internal/faults) on every HA8K system the generators
	// instantiate — the -faults flag's path into the experiments. The
	// resilience experiment additionally sweeps generated fault levels when
	// no plan is given.
	Faults *faults.Plan

	// Attrib, when non-nil, is the continuous power-attribution collector
	// the drift experiment streams its runs into (the -attrib flag's path
	// into the experiments); nil lets the experiment build its own. Like
	// Recorder, attribution is write-only for every rendered artifact.
	Attrib *attrib.Collector

	// Trace, when traced, parents the generators' spans (grid models and
	// cells, Table 4 rows, experiment phases) and the runs under them.
	Trace obs.Span
}

// stageCtx returns the context a generator stage's tasks run under: it
// carries this Options' trace span as the parent of the tasks' spans and
// its progress callback bound to the stage name.
func (o Options) stageCtx(stage string) context.Context {
	ctx := obs.ContextWith(context.Background(), o.Trace)
	if o.Progress == nil {
		return ctx
	}
	fn := o.Progress
	return parallel.WithProgress(ctx, func(done, total int) { fn(stage, done, total) })
}

// withDefaults fills unset fields with the paper's scales.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0x5c15 // "SC15"
	}
	if o.HA8KModules == 0 {
		o.HA8KModules = 1920
	}
	if o.CabSockets == 0 {
		o.CabSockets = 2386
	}
	if o.VulcanBoards == 0 {
		o.VulcanBoards = 48
	}
	if o.TellerSockets == 0 {
		o.TellerSockets = 64
	}
	return o
}

// haSystem instantiates the HA8K system at the configured scale, installing
// the Options' fault plan when one is set.
func (o Options) haSystem() (*cluster.System, []int, error) {
	sys, err := cluster.New(cluster.HA8K(), o.HA8KModules, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	if o.Faults != nil {
		in, err := faults.NewInjector(o.Faults)
		if err != nil {
			return nil, nil, err
		}
		sys.InstallFaults(in)
	}
	ids, err := sys.AllocateFirst(o.HA8KModules)
	if err != nil {
		return nil, nil, err
	}
	return sys, ids, nil
}

// CsLevels are the system-level power constraints of Table 4 for 1,920
// modules. They are exact multiples of the average per-module constraints
// Cm = 110 W … 50 W; the paper reports them rounded (211.2 kW → "211 KW").
var CsLevels = []units.Watts{
	110 * 1920, 100 * 1920, 90 * 1920, 80 * 1920, 70 * 1920, 60 * 1920, 50 * 1920,
}

// CsForScale rescales a paper Cs level (defined for 1,920 modules) to the
// configured module count, keeping the average per-module constraint
// identical so feasibility boundaries are scale-invariant.
func CsForScale(cs units.Watts, modules int) units.Watts {
	return cs * units.Watts(float64(modules)) / 1920
}
