// Package sched is a power-aware resource manager for the simulated
// cluster — the integration target the paper names in its future work
// (Section 7): "integrating our work with a power-aware resource manager
// such as RMAP, which can determine application-level power constraints
// and physical node allocations in a fair yet intelligent manner by using
// hardware overprovisioning".
//
// The scheduler space-shares an (overprovisioned) machine: concurrent jobs
// receive disjoint module sets, and the system-level power constraint is
// partitioned into per-job budgets. Two partitioning policies are
// provided:
//
//   - SplitEqualPerModule: every module gets the same share of the system
//     budget regardless of what runs on it — the variation- and
//     application-unaware baseline a conventional resource manager
//     implements.
//   - SplitGlobalAlpha: the paper's α-solve lifted to the whole machine.
//     Each job's calibrated PMT contributes its module power ranges to one
//     global constraint Σ(α·(Pmax−Pmin)+Pmin) ≤ Csys, a single α is chosen
//     for the system, and each job's budget is the sum of its modules'
//     allocations at that α. Jobs then re-solve internally (recovering
//     per-job α ≈ global α) — power flows toward the applications and
//     modules that need it, and every job suffers the *same* relative
//     slowdown from the system constraint: the "fair yet intelligent"
//     objective the paper attributes to RMAP-style managers.
package sched

import (
	"fmt"
	"sort"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/parallel"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Job is one application submitted to the scheduler.
type Job struct {
	Name    string
	Bench   *workload.Benchmark
	Modules int // requested module count
}

// SplitPolicy selects how the system power constraint is divided among
// concurrently running jobs.
type SplitPolicy int

// Power partitioning policies.
const (
	// SplitEqualPerModule gives each job Csys · (its modules / all
	// allocated modules).
	SplitEqualPerModule SplitPolicy = iota
	// SplitGlobalAlpha solves one α across all jobs' calibrated power
	// models and budgets each job at its α-allocation.
	SplitGlobalAlpha
)

// String names the policy.
func (p SplitPolicy) String() string {
	switch p {
	case SplitEqualPerModule:
		return "equal-per-module"
	case SplitGlobalAlpha:
		return "global-alpha"
	default:
		return fmt.Sprintf("SplitPolicy(%d)", int(p))
	}
}

// AllocPolicy selects which physical modules a job receives — the paper's
// Section-1 observation that "application performance will depend
// significantly on the physical processors allocated to it during
// scheduling" made actionable.
type AllocPolicy int

// Module allocation policies.
const (
	// AllocFirstFit hands out modules contiguously in ID order (a
	// conventional scheduler).
	AllocFirstFit AllocPolicy = iota
	// AllocEfficient sorts the machine's modules by their PVT module-power
	// scale (most power-efficient first) and hands jobs the cheapest
	// modules: under a fixed budget the job's Σ(Pmax−Pmin)/ΣPmin improves
	// and the solver reaches a higher α.
	AllocEfficient
)

// String names the allocation policy.
func (p AllocPolicy) String() string {
	switch p {
	case AllocFirstFit:
		return "first-fit"
	case AllocEfficient:
		return "efficient-first"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// Config drives one scheduling round.
type Config struct {
	// SystemPower is the machine-level constraint Csys.
	SystemPower units.Watts
	// Policy partitions SystemPower among jobs.
	Policy SplitPolicy
	// Alloc selects the module-placement policy (default first-fit).
	Alloc AllocPolicy
	// Scheme is the per-job budgeting scheme applied within each job's
	// budget (typically core.VaFs or core.Naive for comparison).
	Scheme core.Scheme
}

// JobResult is one job's outcome.
type JobResult struct {
	Job     Job
	Modules []int
	Budget  units.Watts
	Run     *core.SchemeRun
}

// Result is a full scheduling round.
type Result struct {
	Config Config
	Jobs   []JobResult
	// Makespan is the slowest job's elapsed time (all jobs start
	// together on their partitions).
	Makespan units.Seconds
	// TotalPower is the sum of the jobs' measured average powers — it
	// must respect SystemPower for budget-adhering schemes.
	TotalPower units.Watts
}

// Throughput returns jobs per simulated hour at this round's rates
// (Σ 1/elapsed · 3600) — the metric overprovisioning papers optimise.
func (r *Result) Throughput() float64 {
	var sum float64
	for _, j := range r.Jobs {
		if e := float64(j.Run.Elapsed()); e > 0 {
			sum += 3600 / e
		}
	}
	return sum
}

// Scheduler owns a system and its budgeting framework.
type Scheduler struct {
	fw *core.Framework
}

// New builds a scheduler over an existing framework (sharing its PVT).
func New(fw *core.Framework) *Scheduler {
	return &Scheduler{fw: fw}
}

// NewOnSystem builds the framework (generating the PVT) and the scheduler.
func NewOnSystem(sys *cluster.System) (*Scheduler, error) {
	fw, err := core.NewFramework(sys, nil)
	if err != nil {
		return nil, err
	}
	return New(fw), nil
}

// Framework exposes the underlying budgeting framework.
func (s *Scheduler) Framework() *core.Framework { return s.fw }

// allocate space-shares the machine according to the placement policy.
func (s *Scheduler) allocate(jobs []Job, policy AllocPolicy) ([][]int, error) {
	total := 0
	for _, j := range jobs {
		if j.Modules < 1 {
			return nil, fmt.Errorf("sched: job %q requests %d modules", j.Name, j.Modules)
		}
		total += j.Modules
	}
	if total > s.fw.Sys.NumModules() {
		return nil, fmt.Errorf("sched: jobs request %d modules, system has %d", total, s.fw.Sys.NumModules())
	}
	order, err := s.moduleOrder(policy)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(jobs))
	next := 0
	for i, j := range jobs {
		ids := make([]int, j.Modules)
		for k := range ids {
			ids[k] = order[next]
			next++
		}
		out[i] = ids
	}
	return out, nil
}

// moduleOrder returns the machine's module IDs in hand-out order for the
// policy.
func (s *Scheduler) moduleOrder(policy AllocPolicy) ([]int, error) {
	n := s.fw.Sys.NumModules()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	switch policy {
	case AllocFirstFit:
		return order, nil
	case AllocEfficient:
		// Rank modules by their PVT module-power scale at fmax — the
		// application-independent efficiency signal the system already has
		// from install time.
		key := make([]float64, n)
		for i := 0; i < n; i++ {
			e, err := s.fw.PVT.Entry(i)
			if err != nil {
				return nil, err
			}
			key[i] = e.CPUMax + e.DramMax
		}
		sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
		return order, nil
	default:
		return nil, fmt.Errorf("sched: unknown allocation policy %v", policy)
	}
}

// Run schedules the batch: allocate modules, partition power per the
// policy, and run every job under its budget with the configured scheme.
func (s *Scheduler) Run(jobs []Job, cfg Config) (*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sched: empty batch")
	}
	if cfg.SystemPower <= 0 {
		return nil, fmt.Errorf("sched: non-positive system power %v", cfg.SystemPower)
	}
	allocs, err := s.allocate(jobs, cfg.Alloc)
	if err != nil {
		return nil, err
	}
	budgets, err := s.partition(jobs, allocs, cfg)
	if err != nil {
		return nil, err
	}

	// Jobs hold disjoint module sets, so they can run concurrently on the
	// shared framework: each job's test runs, RAPL programming and final
	// run touch only its own modules' devices. The fan-out width is the
	// framework's (< 1 selects GOMAXPROCS, 1 runs the batch serially);
	// results land in submission order either way. An attached flight
	// recorder forces the serial path: concurrent jobs would commit their
	// timeline segments in completion order and break trace determinism,
	// while serially the segments land in submission order for every seed.
	workers := s.fw.Workers
	if s.fw.Recorder != nil {
		workers = 1
	}
	res := &Result{Config: cfg}
	res.Jobs, err = parallel.Map(workers, len(jobs), func(i int) (JobResult, error) {
		run, err := s.fw.Run(jobs[i].Bench, allocs[i], budgets[i], cfg.Scheme)
		if err != nil {
			return JobResult{}, fmt.Errorf("sched: job %q: %w", jobs[i].Name, err)
		}
		return JobResult{Job: jobs[i], Modules: allocs[i], Budget: budgets[i], Run: run}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, jr := range res.Jobs {
		if jr.Run.Result.Elapsed > res.Makespan {
			res.Makespan = jr.Run.Result.Elapsed
		}
		res.TotalPower += jr.Run.Result.AvgTotalPower
	}
	return res, nil
}

// partition divides the system power among the jobs.
func (s *Scheduler) partition(jobs []Job, allocs [][]int, cfg Config) ([]units.Watts, error) {
	switch cfg.Policy {
	case SplitEqualPerModule:
		total := 0
		for _, ids := range allocs {
			total += len(ids)
		}
		out := make([]units.Watts, len(jobs))
		for i, ids := range allocs {
			out[i] = cfg.SystemPower * units.Watts(float64(len(ids))) / units.Watts(float64(total))
		}
		return out, nil

	case SplitGlobalAlpha:
		return s.globalAlpha(jobs, allocs, cfg.SystemPower)

	default:
		return nil, fmt.Errorf("sched: unknown split policy %v", cfg.Policy)
	}
}

// globalAlpha solves the paper's Equation 6 across all jobs at once: find
// the single α with Σ_jobs Σ_modules (α·range + min) ≤ Csys (core.SolveAlpha
// over the jobs' summed ranges), then budget each job at its α allocation.
// When even α = 0 does not fit, budgets are shrunk proportionally (the same
// best-effort rule as core.Solve).
func (s *Scheduler) globalAlpha(jobs []Job, allocs [][]int, csys units.Watts) ([]units.Watts, error) {
	type jobModel struct {
		min, rng float64
	}
	models := make([]jobModel, len(jobs))
	var sumMin, sumRange float64
	for i, job := range jobs {
		pmt, err := s.fw.BuildPMT(job.Bench, allocs[i], core.VaFs)
		if err != nil {
			return nil, fmt.Errorf("sched: model for job %q: %w", job.Name, err)
		}
		var m jobModel
		for _, e := range pmt.Entries {
			m.min += float64(e.ModuleMin())
			m.rng += float64(e.ModuleMax() - e.ModuleMin())
		}
		models[i] = m
		sumMin += m.min
		sumRange += m.rng
	}
	sol, shrink := core.SolveAlpha(sumMin, sumRange, csys)
	out := make([]units.Watts, len(jobs))
	for i, m := range models {
		out[i] = units.Watts((m.min + sol.Alpha*m.rng) * shrink)
	}
	return out, nil
}
