package experiments

import (
	"fmt"
	"io"
	"time"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/faults"
	"varpower/internal/report"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// DefaultFleetModules is the fleet experiment's system size: roughly fifty
// HA8K machines' worth of modules, the scale a centre-wide power manager
// would face. The struct-of-arrays cluster layout and the pooled replica
// machinery exist so this size solves and simulates in seconds.
const DefaultFleetModules = 100_000

// FleetCmAvg is the fleet run's average per-module budget (80 W — the same
// mid-table constraint the resilience experiment uses, feasible for MHD).
var FleetCmAvg = units.Watts(80)

// FleetPhase is one timed stage of the fleet run. Wall-clock durations are
// presentation-only: they vary run to run and are excluded from the
// determinism contract.
type FleetPhase struct {
	Name string
	Wall time.Duration
}

// FleetResult is the fleet experiment's output. Every field except Phases
// is deterministic in (seed, modules): two runs with the same options agree
// exactly.
type FleetResult struct {
	Modules int
	Bench   string
	// Cs is the system budget (FleetCmAvg × Modules).
	Cs units.Watts
	// Quarantined counts modules the install-time PVT sweep quarantined
	// (0 without fault injection).
	Quarantined int

	// Alpha is the VaPc solution's power-allocation coefficient; CapMin and
	// CapMax bound the per-module CPU caps it produced — the fleet-wide
	// spread manufacturing variability induces under one budget.
	Alpha  float64
	CapMin units.Watts
	CapMax units.Watts

	// Elapsed and AvgTotalPower are the full-fleet MHD run's outcome;
	// Adheres reports AvgTotalPower ≤ Cs (the paper's Figure-9 criterion).
	Elapsed       units.Seconds
	AvgTotalPower units.Watts
	Adheres       bool
	// BusySpreadPct is (max busy − min busy) / min busy across all ranks —
	// the residual compute-time imbalance after variation-aware budgeting.
	BusySpreadPct float64

	// Phases carries the wall-clock timings (build, pvt, pmt, solve, run).
	Phases []FleetPhase
}

// Fleet exercises the full budgeting pipeline at fleet scale: build a
// 100k-module HA8K system (Options.FleetModules overrides), generate its
// PVT — the install-time sweep of two test runs per module — calibrate an
// MHD PMT, solve the VaPc allocation under an 80 W/module system budget,
// and execute one full-fleet run. Per-phase wall-clock timings are captured
// so the experiment doubles as the repository's fleet-scale performance
// probe; everything else is deterministic in (seed, modules) at any worker
// count.
func Fleet(o Options) (*FleetResult, error) {
	o = o.withDefaults()
	n := o.FleetModules
	if n <= 0 {
		n = DefaultFleetModules
	}
	span := o.Trace.Start("fleet")
	span.SetInt("modules", n)
	defer span.End()
	bench := workload.MHD()
	out := &FleetResult{Modules: n, Bench: bench.Name, Cs: FleetCmAvg * units.Watts(float64(n))}
	timed := func(name string, fn func() error) error {
		sp := span.Start("fleet." + name)
		t0 := time.Now()
		err := fn()
		out.Phases = append(out.Phases, FleetPhase{Name: name, Wall: time.Since(t0)})
		sp.End()
		return err
	}

	// A fleet is modelled as many HA8K-class machines pooled under one
	// budget: the per-module architecture and variability profile are the
	// paper's, the node count is scaled to hold n modules.
	spec := cluster.HA8K()
	if n > spec.TotalModules() {
		spec.Name = "HA8K-fleet"
		spec.Nodes = (n + spec.ProcsPerNode - 1) / spec.ProcsPerNode
	}

	var sys *cluster.System
	var ids []int
	if err := timed("build", func() error {
		var err error
		sys, err = cluster.New(spec, n, o.Seed)
		if err != nil {
			return err
		}
		if o.Faults != nil {
			in, ferr := faults.NewInjector(o.Faults)
			if ferr != nil {
				return ferr
			}
			sys.InstallFaults(in)
		}
		ids, err = sys.AllocateFirst(n)
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiments: fleet build: %w", err)
	}

	var fw *core.Framework
	if err := timed("pvt", func() error {
		var err error
		fw, err = core.NewFrameworkWorkers(sys, nil, o.Workers)
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiments: fleet PVT: %w", err)
	}
	out.Quarantined = len(fw.PVT.Quarantined)
	fw.Trace = span

	var pmt *core.PMT
	if err := timed("pmt", func() error {
		var err error
		pmt, err = fw.BuildPMT(bench, ids, core.VaPc)
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiments: fleet PMT: %w", err)
	}

	var alloc *core.Allocation
	if err := timed("solve", func() error {
		var err error
		alloc, err = core.Solve(pmt, sys.Spec.Arch, out.Cs)
		if err != nil {
			return err
		}
		if !alloc.Feasible {
			return core.ErrBudgetInfeasible{Scheme: core.VaPc, Budget: out.Cs}
		}
		alloc.Budget = out.Cs
		return nil
	}); err != nil {
		return nil, fmt.Errorf("experiments: fleet solve: %w", err)
	}
	out.Alpha = alloc.Alpha
	for i, cap := range alloc.CPUCaps() {
		if i == 0 || cap < out.CapMin {
			out.CapMin = cap
		}
		if cap > out.CapMax {
			out.CapMax = cap
		}
	}

	if err := timed("run", func() error {
		res, err := fw.Execute(bench, ids, alloc, core.VaPc)
		if err != nil {
			return err
		}
		out.Elapsed = res.Elapsed
		out.AvgTotalPower = res.AvgTotalPower
		out.Adheres = res.AvgTotalPower <= out.Cs
		minBusy, maxBusy := res.Ranks[0].Busy, res.Ranks[0].Busy
		for _, r := range res.Ranks[1:] {
			if r.Busy < minBusy {
				minBusy = r.Busy
			}
			if r.Busy > maxBusy {
				maxBusy = r.Busy
			}
		}
		if minBusy > 0 {
			out.BusySpreadPct = 100 * float64(maxBusy-minBusy) / float64(minBusy)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("experiments: fleet run: %w", err)
	}
	return out, nil
}

// TotalWall sums the phase timings.
func (r *FleetResult) TotalWall() time.Duration {
	var sum time.Duration
	for _, p := range r.Phases {
		sum += p.Wall
	}
	return sum
}

// RenderFleet writes the fleet summary: the deterministic pipeline outcome
// first, then the wall-clock phase profile (which varies run to run).
func RenderFleet(w io.Writer, r *FleetResult) error {
	t := report.NewTable(fmt.Sprintf("Fleet: %s across %d modules under %.0f kW", r.Bench, r.Modules, r.Cs.KW()),
		"Quantity", "Value")
	t.AddRow("VaPc α", report.Cellf(r.Alpha, 4))
	t.AddRow("CPU cap spread", fmt.Sprintf("%s – %s W", report.Cellf(float64(r.CapMin), 1), report.Cellf(float64(r.CapMax), 1)))
	t.AddRow("Elapsed", report.Cellf(float64(r.Elapsed), 3)+" s")
	t.AddRow("Avg total power", report.Cellf(r.AvgTotalPower.KW(), 1)+" kW")
	adh := "yes"
	if !r.Adheres {
		adh = "NO"
	}
	t.AddRow("Budget adhered", adh)
	t.AddRow("Busy spread", report.Cellf(r.BusySpreadPct, 2)+" %")
	t.AddRow("Quarantined", fmt.Sprint(r.Quarantined))
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nWall-clock profile (not deterministic):")
	for _, p := range r.Phases {
		fmt.Fprintf(w, " %s=%s", p.Name, p.Wall.Round(time.Millisecond))
	}
	_, err := fmt.Fprintf(w, " total=%s\n", r.TotalWall().Round(time.Millisecond))
	return err
}
