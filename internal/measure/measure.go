// Package measure executes workloads on a simulated system and measures
// them the way the paper does: frequencies from IA32_PERF_STATUS, power
// from the RAPL energy counters (or a sensor back-end), time from the
// simulated MPI runtime.
//
// It is the glue between the hardware substrate (cluster/module/rapl/
// cpufreq), the application substrate (workload/simmpi) and the budgeting
// core (internal/core): a Run resolves each rank's steady-state operating
// point under the requested control mode, simulates the SPMD program,
// accounts energy through the MSR counters, and reports per-rank and
// aggregate results.
package measure

import (
	"errors"
	"fmt"
	"slices"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/flight"
	"varpower/internal/hw/module"
	"varpower/internal/obs"
	"varpower/internal/simmpi"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
	"varpower/internal/xrand"
)

// Run telemetry: per-mode run counts (test runs count as pinned runs) and
// the rank wait-time distribution including the MPI_Finalize barrier tail
// (simmpi's histogram covers only in-program waits), observed once per run
// in rank order. Spans time the three pipeline phases of each Run; a test
// run is one measure.test_run phase sample. A Run records every metric
// write it makes into one telemetry.Batch and publishes it when it
// returns; a test run records its writes into its caller's batch.
var (
	mRuns = func() (m [ModePinned + 1]*telemetry.Counter) {
		for mode := range m {
			m[mode] = telemetry.Default().Counter("varpower_measure_runs_total",
				"Measured application runs, by control mode.", telemetry.Labels{"mode": Mode(mode).String()})
		}
		return m
	}()
	mRankWait = telemetry.Default().Histogram("varpower_measure_rank_wait_seconds",
		"Per-rank wait time over the whole run (in-program waits plus the finalize barrier), in simulated seconds.",
		telemetry.SecondBuckets, nil)
)

// Mode selects how module power/frequency is controlled during a run.
type Mode int

// Control modes.
const (
	// ModeUncapped: no limits; modules turbo up to the platform ceiling.
	ModeUncapped Mode = iota
	// ModeCapped: per-module RAPL package power caps (the PC strategy).
	ModeCapped
	// ModePinned: per-module fixed frequencies via cpufreq (the FS strategy).
	ModePinned
)

// String returns the mode's stable name.
func (m Mode) String() string {
	switch m {
	case ModeUncapped:
		return "uncapped"
	case ModeCapped:
		return "capped"
	case ModePinned:
		return "pinned"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ErrInfeasible reports that a module cannot satisfy its power cap at any
// operating point — the paper's "cannot be operated even with the minimum
// CPU frequency".
var ErrInfeasible = errors.New("measure: power cap below module's feasible range")

// DefaultRunNoiseSigma is the per-run relative timing noise. The paper
// reports < 0.5% run-to-run variation for EP on a fixed socket; 0.1%
// matches that comfortably while keeping distinct runs distinguishable.
const DefaultRunNoiseSigma = 0.001

// raplWindow is the RAPL averaging window capped runs program; the paper
// uses 1 ms.
const raplWindow units.Seconds = 0.001

// Config describes one run.
type Config struct {
	Bench *workload.Benchmark
	// Modules lists the module ID running each rank (rank i on Modules[i]).
	Modules []int

	Mode Mode
	// CPUCaps are the per-rank RAPL package limits (ModeCapped).
	CPUCaps []units.Watts
	// Freqs are the per-rank pinned frequencies (ModePinned).
	Freqs []units.Hertz

	// Recorder, when non-nil, captures the run's flight record — phase
	// intervals, control-plane events, straggler rounds and synthesized
	// per-module samples — and commits it as one segment of the recorder's
	// timeline. Recording is strictly write-only: the measured Result is
	// byte-identical with and without it.
	Recorder *flight.Recorder
	// RecordLabel names the run's timeline segment (default "bench/mode").
	RecordLabel string

	// Attrib, when non-nil, streams the run into the continuous power
	// attribution collector: per-module measured-vs-expected energy for the
	// drift detector, and the job energy split for the tenant ledger. Like
	// Recorder it is strictly write-only — the measured Result is
	// byte-identical with and without it.
	Attrib *attrib.Collector
	// Tenant and JobID label the run in the collector's energy accounting
	// (both default inside the collector: "default"/benchmark name).
	Tenant string
	JobID  string

	// Trace, when traced, parents the run's measure.run span. Test runs
	// (Tester) take no Config, so calibration never grows a trace.
	Trace obs.Span

	// Hold, when non-nil, carries the run's DES program and per-rank draws,
	// which no control setting changes: it must be NewHold(sys, Bench,
	// Modules) on a system with sys's seed and architecture, which a caller
	// running one configuration many times makes once. Nil makes them per
	// run.
	Hold *Hold
}

// Hold is the part of a configuration's run that no control setting
// changes, made once per (system seed, benchmark, module list): the DES
// program, and each rank's workload residual and uncapped operating point
// on its module and its run-noise factor. Plain values, not module curves
// (a curve points at one replica's module), so the runs of every replica
// of the system may share one Hold; runs only read it.
type Hold struct {
	prog     simmpi.Program
	resid    []float64
	uncapped []module.OperatingPoint
	noise    []float64
}

// NewHold makes the hold of bench on modules of sys, rank i on modules[i].
func NewHold(sys *cluster.System, bench *workload.Benchmark, modules []int) (*Hold, error) {
	for _, id := range modules {
		if id < 0 || id >= sys.NumModules() {
			return nil, fmt.Errorf("measure: module %d outside [0,%d)", id, sys.NumModules())
		}
	}
	prog, err := bench.Program(len(modules), sys.Seed)
	if err != nil {
		return nil, err
	}
	prof := bench.ProfileFor(sys.Spec.Arch)
	h := &Hold{
		prog:     prog,
		resid:    make([]float64, len(modules)),
		uncapped: make([]module.OperatingPoint, len(modules)),
		noise:    make([]float64, len(modules)),
	}
	for rank, id := range modules {
		cv := sys.Module(id).Curve(prof)
		h.resid[rank] = cv.Residual()
		h.uncapped[rank] = cv.Uncapped()
		h.noise[rank] = runNoise(sys.Seed, bench.Name, id)
	}
	return h, nil
}

// RankResult is the measured outcome for one rank/module.
type RankResult struct {
	Rank     int
	ModuleID int

	// Op is the steady-state operating point the rank ran at.
	Op module.OperatingPoint

	Busy     units.Seconds
	Wait     units.Seconds
	Sendrecv units.Seconds
	End      units.Seconds

	// Energies read back from the MSR counters over the full run.
	PkgEnergy  units.Joules
	DramEnergy units.Joules

	// Average powers over the application's elapsed time (what Figure 9
	// reports per module).
	AvgCPUPower  units.Watts
	AvgDramPower units.Watts

	// DroppedPolls counts energy-counter polls abandoned during the run —
	// reads that kept failing after retries, or deltas rejected as
	// implausible. The rank's energies cover only the polls that succeeded
	// (partial results); 0 on a healthy module.
	DroppedPolls int
	// Retries counts energy-counter read retries that eventually succeeded.
	Retries int
}

// Verdict classifies a module's health after a run.
type Verdict string

// Health verdicts, worst first. A module with several concurrent faults gets
// the worst applicable verdict.
const (
	// VerdictDead: the rank died mid-run; its stats are partial.
	VerdictDead Verdict = "dead"
	// VerdictSensorFault: energy readings were perturbed, dropped or
	// rejected; the rank's energies are not trustworthy.
	VerdictSensorFault Verdict = "sensor-fault"
	// VerdictCapDrift: cap enforcement drifted or lagged; the rank may have
	// drawn more than its allocation.
	VerdictCapDrift Verdict = "cap-drift"
	// VerdictThrottled: a spurious thermal throttle cut the rank's frequency.
	VerdictThrottled Verdict = "throttled"
	// VerdictSlow: the node computed slower than its operating point implies.
	VerdictSlow Verdict = "slow"
	// VerdictOK: no fault touched this module.
	VerdictOK Verdict = "ok"
)

// ModuleHealth is one rank's post-run health report.
type ModuleHealth struct {
	Rank     int
	ModuleID int
	Verdict  Verdict
	Detail   string
}

// Result is a full run outcome.
type Result struct {
	Ranks   []RankResult
	Elapsed units.Seconds

	// TotalEnergy is the summed module energy of the run.
	TotalEnergy units.Joules
	// AvgTotalPower is TotalEnergy / Elapsed — the quantity the paper's
	// Figure 9 compares against the system power constraint.
	AvgTotalPower units.Watts

	// Health carries per-rank health verdicts when the system has a fault
	// injector installed; nil on healthy systems, so fault-free results are
	// unchanged by the hardening.
	Health []ModuleHealth
}

// DeadRanks returns the ranks that died mid-run, in rank order.
func (r Result) DeadRanks() []int {
	var out []int
	for _, h := range r.Health {
		if h.Verdict == VerdictDead {
			out = append(out, h.Rank)
		}
	}
	return out
}

// Degraded reports whether any module finished with a non-OK verdict.
func (r Result) Degraded() bool {
	for _, h := range r.Health {
		if h.Verdict != VerdictOK {
			return true
		}
	}
	return false
}

// Run executes cfg on the system, with memory of its own.
func Run(sys *cluster.System, cfg Config) (Result, error) {
	var r Runner
	return r.Run(sys, cfg)
}

// Runner makes runs one after another and keeps, across them, the memory
// a run uses and does not return: its metric batch, its operating points
// and the DES's scratch (simmpi.Scratch). A caller that makes many runs,
// such as a framework replica running grid cells, keeps one Runner and
// allocates that memory once. Whatever Run returns is freshly allocated,
// so a result stays valid after later runs. The zero Runner is ready to
// use. A Runner is not safe for concurrent use: concurrent runs need a
// Runner each.
type Runner struct {
	batch telemetry.Batch // the run's metric writes, published when it returns
	ops   []module.OperatingPoint
	noise []float64 // a faulty run's copy of its hold's run noise
	sim   simmpi.Scratch
}

// Run executes cfg on the system, resolving and accounting its ranks one
// after another in rank order. Every metric write the run makes — the run
// count, each rank's RAPL limit write, clamp, throttle and infeasible
// counts and power-above-cap sample, the governor's counts, the DES's
// rounds and busy/wait samples, the rank waits and the phase samples of
// the run's spans — is recorded into r's batch and published once, when
// Run returns, failing or not. Each metric receives its writes in the
// order an unbatched run would make them, so a serial program publishes
// exactly what it would without batching. Fault counters still publish
// at once.
func (r *Runner) Run(sys *cluster.System, cfg Config) (Result, error) {
	if err := validate(sys, &cfg); err != nil {
		return Result{}, err
	}
	b := &r.batch
	defer b.Flush()
	b.Inc(mRuns[cfg.Mode])
	span := cfg.Trace.Start("measure.run")
	span.SetAttr("bench", cfg.Bench.Name)
	span.SetInt("ranks", len(cfg.Modules))
	defer span.EndIn(b)
	prof := cfg.Bench.ProfileFor(sys.Spec.Arch)

	var rec *recording
	var capt *flight.Capture
	var probe simmpi.Probe
	if cfg.Recorder != nil {
		label := cfg.RecordLabel
		if label == "" {
			label = cfg.Bench.Name + "/" + cfg.Mode.String()
		}
		capt = cfg.Recorder.NewCapture(label)
		rec = &recording{cap: capt, modules: cfg.Modules}
		probe = rec
	}

	ops, err := r.resolveAll(sys, &cfg, prof, span, capt)
	if err != nil {
		return Result{}, err
	}

	sp := span.Start("measure.simulate")
	res, err := r.simulate(sys, &cfg, ops, probe)
	sp.EndIn(b)
	if err != nil {
		return Result{}, err
	}
	sp = span.Start("measure.account")
	out, err := account(sys, &cfg, prof, ops, res, b)
	sp.EndIn(b)
	if err != nil {
		return Result{}, err
	}
	if rec != nil {
		rec.finish(sys, &cfg, prof, ops, res)
		cfg.Recorder.Commit(rec.cap)
	}
	if cfg.Attrib != nil {
		observeAttrib(sys, &cfg, prof, ops, res, out)
	}
	return out, nil
}

// Resolve programs cfg's control mode on every rank's module and returns
// the steady-state operating points a Run of cfg would execute at, in rank
// order, under a measure.resolve span parented by cfg.Trace. It is Run's
// first step on its own: nothing is simulated or accounted, the energy
// counters are untouched, and no run is counted. Callers that need only
// the operating points (Table 4's feasibility boundaries) skip the DES and
// the energy polls. Its metric writes publish when it returns.
func Resolve(sys *cluster.System, cfg Config) ([]module.OperatingPoint, error) {
	if err := validate(sys, &cfg); err != nil {
		return nil, err
	}
	var r Runner
	defer r.batch.Flush()
	return r.resolveAll(sys, &cfg, cfg.Bench.ProfileFor(sys.Spec.Arch), cfg.Trace, nil)
}

// resolveAll resolves each rank's steady-state operating point, in rank
// order, into r's operating points under a measure.resolve span, recording
// the ranks' metric writes into r's batch and their control events into
// capt (nil records none). It stops at the first rank that fails, leaving
// the later ranks' modules unprogrammed.
func (r *Runner) resolveAll(sys *cluster.System, cfg *Config, prof module.PowerProfile, parent obs.Span, capt *flight.Capture) ([]module.OperatingPoint, error) {
	sp := parent.Start("measure.resolve")
	defer sp.EndIn(&r.batch)
	r.ops = slices.Grow(r.ops[:0], len(cfg.Modules))[:len(cfg.Modules)]
	for rank, id := range cfg.Modules {
		var err error
		if r.ops[rank], err = resolve(sys, cfg, prof, rank, id, &r.batch, capt); err != nil {
			return nil, err
		}
	}
	return r.ops, nil
}

// validate checks the configuration shape.
func validate(sys *cluster.System, cfg *Config) error {
	if cfg.Bench == nil {
		return fmt.Errorf("measure: nil benchmark")
	}
	if err := cfg.Bench.Validate(); err != nil {
		return err
	}
	if len(cfg.Modules) == 0 {
		return fmt.Errorf("measure: empty module list")
	}
	for _, id := range cfg.Modules {
		if id < 0 || id >= sys.NumModules() {
			return fmt.Errorf("measure: module %d outside [0,%d)", id, sys.NumModules())
		}
	}
	switch cfg.Mode {
	case ModeCapped:
		if !sys.Spec.Measurement.SupportsCapping() {
			return fmt.Errorf("measure: %s (%s) does not support power capping", sys.Spec.Name, sys.Spec.Measurement)
		}
		if len(cfg.CPUCaps) != len(cfg.Modules) {
			return fmt.Errorf("measure: %d caps for %d ranks", len(cfg.CPUCaps), len(cfg.Modules))
		}
	case ModePinned:
		if len(cfg.Freqs) != len(cfg.Modules) {
			return fmt.Errorf("measure: %d frequencies for %d ranks", len(cfg.Freqs), len(cfg.Modules))
		}
	case ModeUncapped:
	default:
		return fmt.Errorf("measure: unknown mode %d", cfg.Mode)
	}
	if h := cfg.Hold; h != nil && len(h.noise) != len(cfg.Modules) {
		return fmt.Errorf("measure: hold of %d ranks for %d ranks", len(h.noise), len(cfg.Modules))
	}
	return nil
}

// resolve determines one rank's operating point under the control mode,
// recording its metric writes into b and each control action it takes
// into capt: the limit cleared (and a pin released) or set, the P-state
// pinned, and a resolution that fell into duty-cycle throttling, with the
// clock the module runs at.
func resolve(sys *cluster.System, cfg *Config, prof module.PowerProfile, rank, id int, b *telemetry.Batch, capt *flight.Capture) (module.OperatingPoint, error) {
	switch cfg.Mode {
	case ModeUncapped:
		if err := sys.RAPL(id).ClearPkgLimit(); err != nil {
			return module.OperatingPoint{}, err
		}
		capt.Event(id, flight.EventCapClear, 0)
		if sys.Governor(id).Release(b) {
			capt.Event(id, flight.EventFreqRelease, 0)
		}
		op, ok := operatingPoint(sys, cfg, prof, rank, id, b, capt)
		if !ok {
			return module.OperatingPoint{}, fmt.Errorf("measure: uncapped resolution failed on module %d", id)
		}
		return op, nil

	case ModeCapped:
		if err := sys.RAPL(id).SetPkgLimit(cfg.CPUCaps[rank], raplWindow, b); err != nil {
			return module.OperatingPoint{}, err
		}
		capt.Event(id, flight.EventCapSet, float64(cfg.CPUCaps[rank]))
		op, ok := operatingPoint(sys, cfg, prof, rank, id, b, capt)
		if !ok {
			return module.OperatingPoint{}, fmt.Errorf("%w: module %d cap %v", ErrInfeasible, id, cfg.CPUCaps[rank])
		}
		return op, nil

	case ModePinned:
		gov := sys.Governor(id)
		f, err := gov.SetSpeed(cfg.Freqs[rank], b)
		if err != nil {
			return module.OperatingPoint{}, err
		}
		capt.Event(id, flight.EventFreqPin, float64(f))
		if h := cfg.Hold; h != nil {
			// The governor's point at its selected P-state.
			return sys.Module(id).CurveWith(prof, h.resid[rank]).AtFrequency(f), nil
		}
		return gov.OperatingPoint(prof), nil
	}
	return module.OperatingPoint{}, fmt.Errorf("measure: unreachable mode %d", cfg.Mode)
}

// operatingPoint resolves rank's point under the limit programmed on its
// module's RAPL controller, from cfg's hold when it carries one, recording
// its metric writes into b and a throttled point's clock into capt.
func operatingPoint(sys *cluster.System, cfg *Config, prof module.PowerProfile, rank, id int, b *telemetry.Batch, capt *flight.Capture) (module.OperatingPoint, bool) {
	ctl := sys.RAPL(id)
	var op module.OperatingPoint
	var ok bool
	if h := cfg.Hold; h != nil {
		op, ok = ctl.OperatingPointOn(sys.Module(id).CurveWith(prof, h.resid[rank]), h.uncapped[rank], b)
	} else {
		cv := sys.Module(id).Curve(prof)
		op, ok = ctl.OperatingPointOn(cv, cv.Uncapped(), b)
	}
	if op.Throttled {
		capt.Event(id, flight.EventThrottle, float64(op.Freq))
	}
	return op, ok
}

// runNoise is the run-to-run timing factor of bench's rank on module id, a
// truncated normal around 1 keyed by (seed, bench, module). The key's
// trailing 0 is part of the stream's identity: dropping it would redraw
// every factor.
func runNoise(seed uint64, bench string, id int) float64 {
	rng := xrand.NewKeyed(seed, xrand.HashString("runnoise"), xrand.HashString(bench), uint64(id), 0)
	return 1 + rng.TruncNormal(0, DefaultRunNoiseSigma, -3, 3)
}

// simulate runs cfg's SPMD program with per-rank timing derived from the
// operating points plus the small run-to-run noise, from cfg's hold when it
// carries one, in r's DES scratch and recording into r's batch.
func (r *Runner) simulate(sys *cluster.System, cfg *Config, ops []module.OperatingPoint, probe simmpi.Probe) (simmpi.Result, error) {
	if h := cfg.Hold; h != nil {
		noise := h.noise
		if sys.Faults() != nil {
			r.noise = append(r.noise[:0], noise...)
			noise = r.noise
		}
		return simulateProgram(sys, h.prog, cfg.Modules, ops, noise, probe, &r.sim, &r.batch)
	}
	prog, err := cfg.Bench.Program(len(cfg.Modules), sys.Seed)
	if err != nil {
		return simmpi.Result{}, err
	}
	noise := make([]float64, len(cfg.Modules))
	for rank, id := range cfg.Modules {
		noise[rank] = runNoise(sys.Seed, cfg.Bench.Name, id)
	}
	return simulateProgram(sys, prog, cfg.Modules, ops, noise, probe, &r.sim, &r.batch)
}

// simulateProgram runs prog with rank i on modules[i] at ops[i]'s
// frequency, its times scaled by the run-noise factor noise[i], in the
// DES scratch mem (nil allocates the run's own). On a faulty system it
// scales noise in place by each module's slow factor and kills the ranks
// whose modules the plan kills. The DES's metric writes go into b (nil
// publishes them at once).
func simulateProgram(sys *cluster.System, prog simmpi.Program, modules []int, ops []module.OperatingPoint, noise []float64, probe simmpi.Probe, mem *simmpi.Scratch, b *telemetry.Batch) (simmpi.Result, error) {
	n := len(modules)
	in := sys.Faults()
	if in != nil {
		// A degrading node computes slower than its operating point
		// implies — invisible to resolution, felt only in timing.
		for rank, id := range modules {
			noise[rank] *= in.SlowFactor(id)
		}
	}
	arch := sys.Spec.Arch
	model := simmpi.Model(func(rank int, cycles, bytes float64) units.Seconds {
		f := ops[rank].Freq
		if f <= 0 {
			return units.Seconds(1e18)
		}
		t := cycles / float64(f)
		if bytes > 0 {
			t += bytes / arch.MemBWAt(f)
		}
		return units.Seconds(t * noise[rank])
	})
	var fs *simmpi.FaultSpec
	if in != nil {
		deadAt := make([]units.Seconds, n)
		any := false
		for rank := range deadAt {
			deadAt[rank] = -1
			if dt, ok := in.DeathTime(modules[rank]); ok {
				deadAt[rank] = dt
				any = true
			}
		}
		if any {
			fs = &simmpi.FaultSpec{DeadAt: deadAt}
		}
	}
	return mem.RunFaulty(prog, n, model, simmpi.DefaultNetwork, probe, fs, b)
}

// account converts the DES timing into MSR energy-counter activity and
// reads the counters back into the result, one accountRank per rank in
// rank order, each filling its rank's entry in place, then records every
// rank's wait into b in rank order and builds the per-rank health verdicts
// on a faulty system.
func account(sys *cluster.System, cfg *Config, prof module.PowerProfile, ops []module.OperatingPoint, sim simmpi.Result, b *telemetry.Batch) (Result, error) {
	ranks := make([]RankResult, len(cfg.Modules))
	for rank, id := range cfg.Modules {
		if err := accountRank(sys, cfg.Mode, prof, id, ops[rank], sim, rank, &ranks[rank]); err != nil {
			return Result{}, err
		}
	}
	b.ObserveEach(mRankWait, len(ranks), func(rank int) float64 { return float64(rankWait(sim, rank)) })
	out := Result{Ranks: ranks, Elapsed: sim.Elapsed}
	var totalJ float64
	for i := range ranks {
		totalJ += float64(ranks[i].PkgEnergy) + float64(ranks[i].DramEnergy)
	}
	out.TotalEnergy = units.Joules(totalJ)
	out.AvgTotalPower = units.AvgPower(out.TotalEnergy, out.Elapsed)
	if in := sys.Faults(); in != nil {
		out.Health = health(in, sim, ranks)
	}
	return out, nil
}

// rankWait is the time rank draws wait power. Ranks that finish early sit
// in the MPI_Finalize barrier (the PMMD region ends there), busy-polling
// until the slowest rank arrives, so it is everything but the rank's busy
// time up to the run's end — or up to its death time, when a dead rank
// stops drawing power.
func rankWait(sim simmpi.Result, rank int) units.Seconds {
	st := sim.Ranks[rank]
	wait := sim.Elapsed - st.Busy
	if st.Dead {
		wait = st.End - st.Busy
	}
	if wait < 0 {
		wait = 0
	}
	return wait
}

// accountRank converts the DES timing of rank, running on module id at op
// under the control mode, into energy-counter activity on the module,
// reads the counters back and writes the rank's result to r. On a healthy
// system the poll loop is one rapl.Controller.PollEnergy call, which reads
// the counters once per poll: the read that ends one chunk also starts the
// next, since nothing touches the counters in between. With a fault
// injector installed the poll loop hardens: each chunk is read at both
// ends, reads are retried with poll-time backoff, polls that keep failing
// or report implausible power are dropped (the rank's energies turn
// partial rather than wrong), and cap-enforcement lag adds its overshoot
// energy to the counters. It touches only the rank's own module.
func accountRank(sys *cluster.System, mode Mode, prof module.PowerProfile, id int, op module.OperatingPoint, sim simmpi.Result, rank int, r *RankResult) error {
	in := sys.Faults()
	arch := sys.Spec.Arch
	ctl := sys.RAPL(id)
	st := sim.Ranks[rank]
	wait := rankWait(sim, rank)
	// The RAPL energy counters are 32-bit and wrap every ~64 kJ, so —
	// exactly like libmsr-based tools — poll them periodically rather
	// than once per run. Thirty virtual seconds per poll keeps each
	// delta far below one wrap at any plausible module power.
	chunks := int(float64(sim.Elapsed)/30) + 1
	chunkBusy := st.Busy / units.Seconds(chunks)
	chunkWait := wait / units.Seconds(chunks)
	chunkDur := float64(chunkBusy + chunkWait)
	var pkgJ, dramJ units.Joules
	var dropped, retries int
	if in == nil {
		var err error
		if pkgJ, dramJ, err = ctl.PollEnergy(prof, op, chunkBusy, chunkWait, chunks); err != nil {
			return err
		}
	} else {
		for c := 0; c < chunks; c++ {
			ctl.Device().SetPollTime(chunkDur * float64(c))
			snap, err := ctl.Snapshot()
			if err != nil && errors.Is(err, faults.ErrDropped) {
				// Bounded retry with poll-time backoff: a transient drop
				// window may have closed by the next (slightly later) poll.
				for a := 1; a <= snapshotRetries && err != nil; a++ {
					faults.MetricRetried.Inc()
					retries++
					ctl.Device().SetPollTime(chunkDur*float64(c) + float64(a)*retryBackoff)
					snap, err = ctl.Snapshot()
				}
			}
			readable := err == nil
			if err != nil && !errors.Is(err, faults.ErrDropped) {
				return err
			}
			if c == 0 && mode == ModeCapped {
				// Cap-enforcement lag: the module ran uncapped until the
				// limit took hold; the counters observe the overshoot.
				if lag, ok := in.CapLag(id); ok && lag > 0 {
					if lag > float64(sim.Elapsed) {
						lag = float64(sim.Elapsed)
					}
					unc := sys.Module(id).Curve(prof).Uncapped()
					overPkg := (float64(unc.CPUPower) - float64(op.CPUPower)) * lag
					overDram := (float64(unc.DramPower) - float64(op.DramPower)) * lag
					if overPkg < 0 {
						overPkg = 0
					}
					if overDram < 0 {
						overDram = 0
					}
					if overPkg > 0 || overDram > 0 {
						ctl.Device().AccumulateEnergy(overPkg, overDram)
						faults.CountInjected(faults.KindCapLag)
					}
				}
			}
			ctl.AccountEnergy(prof, op, chunkBusy, chunkWait)
			if !readable {
				// The poll never succeeded: the chunk's energy stays on the
				// counters (the next successful poll sees it) but this
				// rank's observed total goes partial.
				dropped++
				continue
			}
			ctl.Device().SetPollTime(chunkDur * float64(c+1))
			now, err := ctl.Snapshot()
			if err != nil {
				if errors.Is(err, faults.ErrDropped) {
					dropped++
					continue
				}
				return err
			}
			dp, dd := now.Since(snap)
			if chunkDur > 0 {
				// Plausibility gate: a spiking counter can report orders of
				// magnitude more energy than the module can draw. Reject
				// the delta rather than averaging it in.
				if (float64(dp)+float64(dd))/chunkDur > implausiblePowerFactor*(float64(arch.TDP)+float64(arch.DramTDP)) {
					dropped++
					faults.MetricQuarantined.Inc()
					continue
				}
			}
			pkgJ += dp
			dramJ += dd
		}
	}
	// Field by field: a composite literal would be built on the stack and
	// copied into *r.
	r.Rank, r.ModuleID, r.Op = rank, id, op
	r.Busy, r.Wait, r.Sendrecv, r.End = st.Busy, st.Wait, st.Sendrecv, st.End
	r.PkgEnergy, r.DramEnergy = pkgJ, dramJ
	r.AvgCPUPower = units.AvgPower(pkgJ, sim.Elapsed)
	r.AvgDramPower = units.AvgPower(dramJ, sim.Elapsed)
	r.DroppedPolls, r.Retries = dropped, retries
	return nil
}

// Hardened poll-loop tuning.
const (
	// snapshotRetries bounds energy-read retries per poll.
	snapshotRetries = 3
	// retryBackoff is the virtual-seconds poll-time shift per retry.
	retryBackoff = 1.0
	// implausiblePowerFactor rejects a poll delta implying more than this
	// multiple of the module's total TDP — far above any real draw, tripped
	// immediately by a spiked counter.
	implausiblePowerFactor = 4.0
)

// health builds the per-rank verdicts, worst applicable fault first. Serial
// and in rank order, so counters and verdicts are deterministic.
func health(in *faults.Injector, sim simmpi.Result, ranks []RankResult) []ModuleHealth {
	out := make([]ModuleHealth, len(ranks))
	for rank, r := range ranks {
		h := ModuleHealth{Rank: rank, ModuleID: r.ModuleID, Verdict: VerdictOK}
		switch {
		case sim.Ranks[rank].Dead:
			h.Verdict = VerdictDead
			h.Detail = fmt.Sprintf("died at t=%.2fs", float64(sim.Ranks[rank].End))
			countDeath()
		case r.DroppedPolls > 0 || in.Has(r.ModuleID, faults.KindStuckMSR) ||
			in.Has(r.ModuleID, faults.KindSpikeMSR) || in.Has(r.ModuleID, faults.KindDropMSR):
			h.Verdict = VerdictSensorFault
			h.Detail = fmt.Sprintf("%d polls dropped, %d retried", r.DroppedPolls, r.Retries)
		case in.Has(r.ModuleID, faults.KindCapDrift) || in.Has(r.ModuleID, faults.KindCapLag):
			h.Verdict = VerdictCapDrift
		case in.Has(r.ModuleID, faults.KindThermalThrottle):
			h.Verdict = VerdictThrottled
		case in.Has(r.ModuleID, faults.KindSlowNode):
			h.Verdict = VerdictSlow
		}
		out[rank] = h
	}
	return out
}

// TestRunResult is what a single-module test run measures: average CPU and
// DRAM power at a pinned frequency.
type TestRunResult struct {
	Freq      units.Hertz
	CPUPower  units.Watts
	DramPower units.Watts
}

// ModulePower is CPU + DRAM power.
func (t TestRunResult) ModulePower() units.Watts { return t.CPUPower + t.DramPower }

// countDeath counts a rank that died mid-run: one dead rank and one
// injected module death.
func countDeath() {
	faults.MetricDeadRanks.Inc()
	faults.CountInjected(faults.KindModuleDeath)
}

// Tester makes the paper's low-cost single-module test runs of one
// benchmark on one system: pin a module to a frequency, run the benchmark
// on it with a single rank, and report the measured average powers. A run
// is shortened to testIterations, because only steady-state power is
// needed. It measures what a pinned Run of that one-module configuration
// measures, through the same simulation and accountRank steps, but pays
// only for its simulation: no span tree, recorder or attribution,
// and none of the work that is the same for every run. NewTester
// validates the benchmark, caps its iterations, builds the one-rank
// program and resolves the power profile once, for every module: rank 0's
// imbalance draw depends only on the benchmark and the system seed, so
// every module plays the same program. Member draws what one module's runs
// share, whatever their clock.
//
// Every test run of the repository is a Tester's: the PVT sweeps, PMT
// calibration, the VaFs hold-out and the oracle measurement (core). A
// Tester only reads its fields, so concurrent runs on distinct modules may
// share it.
type Tester struct {
	sys   *cluster.System
	bench workload.Benchmark // iterations capped at testIterations
	prof  module.PowerProfile
	prog  simmpi.Program
}

// NewTester makes the tester of bench on sys.
func NewTester(sys *cluster.System, bench *workload.Benchmark) (*Tester, error) {
	if bench == nil {
		return nil, fmt.Errorf("measure: nil benchmark")
	}
	t := &Tester{sys: sys, bench: *bench}
	if t.bench.Iterations > testIterations {
		t.bench.Iterations = testIterations
	}
	if err := t.bench.Validate(); err != nil {
		return nil, err
	}
	prog, err := t.bench.Program(1, sys.Seed)
	if err != nil {
		return nil, err
	}
	t.prog, t.prof = prog, t.bench.ProfileFor(sys.Spec.Arch)
	return t, nil
}

// Member is what the test runs of one module share: the module's curve
// for the benchmark, which carries its workload residual, and its run-noise
// factor. A test pair draws them once for both of its clocks.
type Member struct {
	id    int
	curve module.Curve
	noise float64
}

// Member draws module id's share of its test runs.
func (t *Tester) Member(id int) (Member, error) {
	if id < 0 || id >= t.sys.NumModules() {
		return Member{}, fmt.Errorf("measure: module %d outside [0,%d)", id, t.sys.NumModules())
	}
	return Member{id: id, curve: t.sys.Module(id).Curve(t.prof), noise: runNoise(t.sys.Seed, t.bench.Name, id)}, nil
}

// Run makes m's test run at frequency f and reports the measured average
// powers. It records every metric write the run makes — one pinned run, the
// governor's set and transition counts, the DES's rounds and busy/wait
// samples, one rank wait and one measure.test_run phase sample — into b,
// which publishes them when it is flushed (nil publishes them at once); a
// faulty system's fault counters publish at once either way.
func (t *Tester) Run(m Member, f units.Hertz, b *telemetry.Batch) (TestRunResult, error) {
	b.Inc(mRuns[ModePinned])
	var root obs.Span
	span := root.Start("measure.test_run")
	defer span.EndIn(b)
	sel, err := t.sys.Governor(m.id).SetSpeed(f, b)
	if err != nil {
		return TestRunResult{}, err
	}
	ids := [1]int{m.id}
	ops := [1]module.OperatingPoint{m.curve.AtFrequency(sel)}
	noise := [1]float64{m.noise}
	sim, err := simulateProgram(t.sys, t.prog, ids[:], ops[:], noise[:], nil, nil, b)
	if err != nil {
		return TestRunResult{}, err
	}
	var r RankResult
	if err := accountRank(t.sys, ModePinned, t.prof, m.id, ops[0], sim, 0, &r); err != nil {
		return TestRunResult{}, err
	}
	b.Observe(mRankWait, float64(rankWait(sim, 0)))
	if sim.Ranks[0].Dead {
		countDeath() // as Run's health verdicts count a dead rank
	}
	return TestRunResult{Freq: r.Op.Freq, CPUPower: r.AvgCPUPower, DramPower: r.AvgDramPower}, nil
}

// testIterations caps a test run's iteration count.
const testIterations = 5
