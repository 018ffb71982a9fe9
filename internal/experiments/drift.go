package experiments

import (
	"fmt"
	"io"
	"math"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/faults"
	"varpower/internal/report"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// DriftLadder is the drift experiment's default fault plan: a ladder of
// cap-drift magnitudes on four modules spread across the system, so the
// detector is exercised from "barely outside the dead band" to "badly
// drifted". Module positions are fixed fractions of n — the plan is a pure
// function of the module count.
func DriftLadder(modules int) *faults.Plan {
	mags := []float64{1.10, 1.15, 1.20, 1.25}
	plan := &faults.Plan{Name: "cap-drift-ladder"}
	for i, m := range mags {
		plan.Events = append(plan.Events, faults.Event{
			Module:    (2*i + 1) * modules / 8,
			Kind:      faults.KindCapDrift,
			Magnitude: m,
		})
	}
	return plan
}

// DriftJob is one of the experiment's tenant-labelled runs.
type DriftJob struct {
	Tenant string
	JobID  string
	Bench  string
	Alpha  float64
	// ElapsedS and EnergyJ are the measured run outcome (the ground truth
	// the attribution ledger must conserve).
	ElapsedS float64
	EnergyJ  float64
}

// DriftResult is the drift experiment's output: the full continuous
// observability loop — attribute, detect, recalibrate, re-solve — run
// against a cluster with drifting cap enforcement. Deterministic in
// (seed, modules, plan) at any worker count.
type DriftResult struct {
	Modules int
	// Cs is the system budget the jobs solve under (80 W/module, the fleet
	// experiment's constrained operating point).
	Cs units.Watts
	// Plan names the installed fault plan; Injected lists the modules it
	// drifts (the detector's ground truth).
	Plan     string
	Injected []int

	// Jobs are the tenant-labelled runs that fed the collector, in order.
	Jobs []DriftJob

	// Report is the collector snapshot after the jobs; Flagged is its
	// drifting-module verdict (must equal Injected on the default ladder).
	Report  *attrib.Report
	Flagged []int

	// ConservationErr is |attributed − measured| / measured across all jobs
	// — the energy-accounting identity, ≈ 0 to float accumulation.
	ConservationErr float64

	// Refresh summarises the incremental recalibration of the flagged set.
	Refresh *core.RefreshReport

	// AlphaBefore and AlphaAfter are the MHD VaPc α against the install-time
	// and refreshed tables: the proof the splice changed the served answer.
	AlphaBefore, AlphaAfter float64
}

// Drift runs the continuous attribution + recalibration loop end to end on
// one HA8K system (Options.HA8KModules, Options.Faults overriding the
// default cap-drift ladder): three tenant-labelled jobs feed the collector,
// the drift detector flags the drifters, core.RefreshPVT re-measures only
// those and splices the live PVT, and the final re-solve shows the
// corrected α. This is the same loop varpowerd serves over HTTP
// (/v1/attrib, /v1/recalibrate), runnable offline.
func Drift(o Options) (*DriftResult, error) {
	o = o.withDefaults()
	n := o.HA8KModules
	span := o.Trace.Start("drift")
	span.SetInt("modules", n)
	defer span.End()

	plan := o.Faults
	if plan == nil {
		plan = DriftLadder(n)
	}
	out := &DriftResult{Modules: n, Cs: FleetCmAvg * units.Watts(float64(n)), Plan: plan.Name}
	seen := map[int]bool{}
	for _, e := range plan.Events {
		if e.Kind == faults.KindCapDrift && !seen[e.Module] {
			seen[e.Module] = true
			out.Injected = append(out.Injected, e.Module)
		}
	}

	sys, err := cluster.New(cluster.HA8K(), n, o.Seed)
	if err != nil {
		return nil, err
	}
	in, err := faults.NewInjector(plan)
	if err != nil {
		return nil, err
	}
	sys.InstallFaults(in)
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		return nil, err
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, o.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift PVT: %w", err)
	}

	collector := o.Attrib
	if collector == nil {
		collector = attrib.New(attrib.Config{})
	}
	if o.Recorder != nil {
		collector.SetRecorder(o.Recorder)
	}
	fw.Recorder = o.Recorder
	fw.Attrib = collector
	fw.Trace = span

	// Three tenant-labelled jobs on the drifting cluster — the runs the
	// system was executing anyway are the detector's entire evidence.
	jobs := []struct {
		tenant, job string
		bench       *workload.Benchmark
	}{
		{"astro", "mhd-nightly", workload.MHD()},
		{"materials", "ep-sweep", workload.EP()},
		{"astro", "mhd-nightly", workload.MHD()},
	}
	var measuredJ float64
	for i, j := range jobs {
		fw.Tenant, fw.JobID = j.tenant, j.job
		run, err := fw.Run(j.bench, ids, out.Cs, core.VaPc)
		if err != nil {
			return nil, fmt.Errorf("experiments: drift job %d (%s/%s): %w", i, j.tenant, j.job, err)
		}
		measuredJ += float64(run.Result.TotalEnergy)
		out.Jobs = append(out.Jobs, DriftJob{
			Tenant: j.tenant, JobID: j.job, Bench: j.bench.Name,
			Alpha:    run.Alloc.Alpha,
			ElapsedS: float64(run.Result.Elapsed),
			EnergyJ:  float64(run.Result.TotalEnergy),
		})
		if i == 0 {
			out.AlphaBefore = run.Alloc.Alpha
		}
	}
	fw.Tenant, fw.JobID = "", ""

	out.Report = collector.Snapshot()
	out.Flagged = out.Report.Flagged
	if measuredJ > 0 {
		out.ConservationErr = math.Abs(out.Report.TotalJ()-measuredJ) / measuredJ
	}
	if len(out.Flagged) == 0 {
		return nil, fmt.Errorf("experiments: drift detector flagged no modules (injected %v)", out.Injected)
	}

	// Incremental recalibration: re-measure only the flagged modules and
	// splice them into the live PVT, then restart their drift windows.
	sp := span.Start("drift.refresh")
	out.Refresh, err = fw.Refresh(out.Flagged)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: drift refresh: %w", err)
	}
	collector.Reset(out.Flagged)

	// The corrected table changes the solved allocation.
	fw.Attrib = nil
	run, err := fw.Run(workload.MHD(), ids, out.Cs, core.VaPc)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift re-solve: %w", err)
	}
	out.AlphaAfter = run.Alloc.Alpha
	return out, nil
}

// RenderDrift writes the drift experiment's summary tables.
func RenderDrift(w io.Writer, r *DriftResult) error {
	t := report.NewTable(fmt.Sprintf("Drift loop: %d modules under %.0f kW, plan %q", r.Modules, r.Cs.KW(), r.Plan),
		"Quantity", "Value")
	t.AddRow("Injected cap-drift", fmt.Sprint(r.Injected))
	t.AddRow("Detector flagged", fmt.Sprint(r.Flagged))
	t.AddRow("Samples ingested", fmt.Sprint(r.Report.Samples))
	t.AddRow("Energy conservation err", fmt.Sprintf("%.2e", r.ConservationErr))
	t.AddRow("VaPc α before refresh", report.Cellf(r.AlphaBefore, 4))
	t.AddRow("VaPc α after refresh", report.Cellf(r.AlphaAfter, 4))
	if r.Refresh != nil {
		t.AddRow("Refresh reference module", fmt.Sprint(r.Refresh.Reference))
	}
	if err := t.Render(w); err != nil {
		return err
	}

	jt := report.NewTable("Per-job energy accounting", "Tenant", "Job", "Runs", "Busy J", "Wait J", "Idle J", "Total J")
	for _, j := range r.Report.Jobs {
		jt.AddRow(j.Tenant, j.Job, fmt.Sprint(j.Runs),
			report.Cellf(j.BusyJ, 1), report.Cellf(j.WaitJ, 1),
			report.Cellf(j.IdleJ, 1), report.Cellf(j.TotalJ, 1))
	}
	if err := jt.Render(w); err != nil {
		return err
	}

	dt := report.NewTable("Flagged modules", "Module", "Residual", "Score (MADs)", "Refreshed enforcement")
	enf := map[int]float64{}
	if r.Refresh != nil {
		for _, m := range r.Refresh.Modules {
			enf[m.Module] = m.Enforcement
		}
	}
	for _, m := range r.Report.Modules {
		if !m.Flagged {
			continue
		}
		dt.AddRow(fmt.Sprint(m.Module), report.Cellf(m.Residual, 4),
			report.Cellf(m.Score, 1), report.Cellf(enf[m.Module], 4))
	}
	return dt.Render(w)
}
