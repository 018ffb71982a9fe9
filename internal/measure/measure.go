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
	"varpower/internal/parallel"
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
// run is one measure.test_run span.
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

	// Workers bounds the fan-out of the per-rank resolution and energy
	// accounting loops: < 1 selects GOMAXPROCS, 1 recovers the serial loop.
	// Results are byte-identical for every worker count (every module's
	// draws come from its own keyed RNG stream); parallelism is silently
	// disabled when Modules carries duplicate IDs, whose RAPL/governor
	// programming is order-dependent.
	Workers int

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

	// Trace, when traced, parents the run's measure.run span. TestRun
	// leaves it unset, so calibration test runs never grow a trace.
	Trace obs.Span

	// Program, when non-nil, is the DES program the run plays: it must be
	// Bench.Program(len(Modules), sys.Seed), which a caller running one
	// configuration many times builds once. Nil builds it per run.
	Program simmpi.Program
	// Hold, when non-nil, carries the run's per-rank draws that no control
	// setting changes: it must be NewHold(sys, Bench, Modules) on a system
	// with sys's seed and architecture, which a caller running one
	// configuration many times draws once. Nil draws them per run.
	Hold *Hold
}

// Hold is the part of a configuration's hardware model that no control
// setting changes, drawn once per (system seed, benchmark, module list):
// each rank's workload residual and uncapped operating point on its
// module, and its run-noise factor. Plain values, not module curves (a
// curve points at one replica's module), so the runs of every replica of
// the system may share one Hold; runs only read it.
type Hold struct {
	resid    []float64
	uncapped []module.OperatingPoint
	noise    []float64
}

// NewHold draws the hold of bench on modules of sys, rank i on modules[i].
func NewHold(sys *cluster.System, bench *workload.Benchmark, modules []int) (*Hold, error) {
	for _, id := range modules {
		if id < 0 || id >= sys.NumModules() {
			return nil, fmt.Errorf("measure: module %d outside [0,%d)", id, sys.NumModules())
		}
	}
	prof := bench.ProfileFor(sys.Spec.Arch)
	h := &Hold{
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

// Run executes cfg on the system.
func Run(sys *cluster.System, cfg Config) (Result, error) {
	if err := validate(sys, &cfg); err != nil {
		return Result{}, err
	}
	mRuns[cfg.Mode].Inc()
	span := cfg.Trace.Start("measure.run")
	span.SetAttr("bench", cfg.Bench.Name)
	span.SetInt("ranks", len(cfg.Modules))
	defer span.End()
	prof := cfg.Bench.ProfileFor(sys.Spec.Arch)

	var rec *recording
	if cfg.Recorder != nil {
		label := cfg.RecordLabel
		if label == "" {
			label = cfg.Bench.Name + "/" + cfg.Mode.String()
		}
		rec = &recording{cap: cfg.Recorder.NewCapture(label), modules: cfg.Modules}
		rec.attach(sys)
		defer rec.detach(sys)
	}

	ops, err := resolveAll(sys, cfg, prof, span)
	if err != nil {
		return Result{}, err
	}

	var probe simmpi.Probe
	if rec != nil {
		probe = rec
	}
	sp := span.Start("measure.simulate")
	res, err := simulate(sys, cfg, ops, probe)
	sp.End()
	if err != nil {
		return Result{}, err
	}
	sp = span.Start("measure.account")
	out, err := account(sys, cfg, prof, ops, res)
	sp.End()
	if err != nil {
		return Result{}, err
	}
	if rec != nil {
		rec.finish(sys, cfg, prof, ops, res)
		cfg.Recorder.Commit(rec.cap)
	}
	if cfg.Attrib != nil {
		observeAttrib(sys, cfg, prof, ops, res, out)
	}
	return out, nil
}

// Resolve programs cfg's control mode on every rank's module and returns
// the steady-state operating points a Run of cfg would execute at, in rank
// order, under a measure.resolve span parented by cfg.Trace. It is Run's
// first step on its own: nothing is simulated or accounted, the energy
// counters are untouched, and no run is counted. Callers that need only
// the operating points (Table 4's feasibility boundaries) skip the DES and
// the energy polls.
func Resolve(sys *cluster.System, cfg Config) ([]module.OperatingPoint, error) {
	if err := validate(sys, &cfg); err != nil {
		return nil, err
	}
	return resolveAll(sys, cfg, cfg.Bench.ProfileFor(sys.Spec.Arch), cfg.Trace)
}

// resolveAll resolves each rank's steady-state operating point under a
// measure.resolve span. Each rank programs and reads only its own module's
// RAPL controller and governor, so the fan-out is safe whenever the module
// IDs are distinct.
func resolveAll(sys *cluster.System, cfg Config, prof module.PowerProfile, parent obs.Span) ([]module.OperatingPoint, error) {
	sp := parent.Start("measure.resolve")
	defer sp.End()
	return parallel.Map(rankWorkers(cfg), len(cfg.Modules), func(rank int) (module.OperatingPoint, error) {
		return resolve(sys, cfg, prof, rank, cfg.Modules[rank])
	})
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

// resolve determines one rank's operating point under the control mode.
func resolve(sys *cluster.System, cfg Config, prof module.PowerProfile, rank, id int) (module.OperatingPoint, error) {
	switch cfg.Mode {
	case ModeUncapped:
		ctl := sys.RAPL(id)
		if err := ctl.ClearPkgLimit(); err != nil {
			return module.OperatingPoint{}, err
		}
		sys.Governor(id).Release()
		op, ok := operatingPoint(sys, cfg, prof, rank, id)
		if !ok {
			return module.OperatingPoint{}, fmt.Errorf("measure: uncapped resolution failed on module %d", id)
		}
		return op, nil

	case ModeCapped:
		ctl := sys.RAPL(id)
		if err := ctl.SetPkgLimit(cfg.CPUCaps[rank], raplWindow); err != nil {
			return module.OperatingPoint{}, err
		}
		op, ok := operatingPoint(sys, cfg, prof, rank, id)
		if !ok {
			return module.OperatingPoint{}, fmt.Errorf("%w: module %d cap %v", ErrInfeasible, id, cfg.CPUCaps[rank])
		}
		return op, nil

	case ModePinned:
		gov := sys.Governor(id)
		f, err := gov.SetSpeed(cfg.Freqs[rank])
		if err != nil {
			return module.OperatingPoint{}, err
		}
		if h := cfg.Hold; h != nil {
			// The governor's point at its selected P-state.
			return sys.Module(id).CurveWith(prof, h.resid[rank]).AtFrequency(f), nil
		}
		return gov.OperatingPoint(prof), nil
	}
	return module.OperatingPoint{}, fmt.Errorf("measure: unreachable mode %d", cfg.Mode)
}

// operatingPoint resolves rank's point under the limit programmed on its
// module's RAPL controller, from cfg's hold when it carries one.
func operatingPoint(sys *cluster.System, cfg Config, prof module.PowerProfile, rank, id int) (module.OperatingPoint, bool) {
	ctl := sys.RAPL(id)
	if h := cfg.Hold; h != nil {
		return ctl.OperatingPointOn(sys.Module(id).CurveWith(prof, h.resid[rank]), h.uncapped[rank])
	}
	return ctl.OperatingPoint(prof)
}

// runNoise is the run-to-run timing factor of bench's rank on module id, a
// truncated normal around 1 keyed by (seed, bench, module). The key's
// trailing 0 is part of the stream's identity: dropping it would redraw
// every factor.
func runNoise(seed uint64, bench string, id int) float64 {
	rng := xrand.NewKeyed(seed, xrand.HashString("runnoise"), xrand.HashString(bench), uint64(id), 0)
	return 1 + rng.TruncNormal(0, DefaultRunNoiseSigma, -3, 3)
}

// simulate runs the SPMD program with per-rank timing derived from the
// operating points plus the small run-to-run noise.
func simulate(sys *cluster.System, cfg Config, ops []module.OperatingPoint, probe simmpi.Probe) (simmpi.Result, error) {
	n := len(cfg.Modules)
	prog := cfg.Program
	if prog == nil {
		var err error
		if prog, err = cfg.Bench.Program(n, sys.Seed); err != nil {
			return simmpi.Result{}, err
		}
	}
	in := sys.Faults()
	var noise []float64
	switch {
	case cfg.Hold == nil:
		noise = make([]float64, n)
		for rank, id := range cfg.Modules {
			noise[rank] = runNoise(sys.Seed, cfg.Bench.Name, id)
		}
	case in == nil:
		noise = cfg.Hold.noise
	default:
		noise = slices.Clone(cfg.Hold.noise)
	}
	if in != nil {
		// A degrading node computes slower than its operating point
		// implies — invisible to resolution, felt only in timing.
		for rank, id := range cfg.Modules {
			noise[rank] *= in.SlowFactor(id)
		}
	}
	arch := sys.Spec.Arch
	model := simmpi.ModelFunc(func(rank int, cycles, bytes float64) units.Seconds {
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
			if dt, ok := in.DeathTime(cfg.Modules[rank]); ok {
				deadAt[rank] = dt
				any = true
			}
		}
		if any {
			fs = &simmpi.FaultSpec{DeadAt: deadAt}
		}
	}
	return simmpi.RunFaulty(prog, n, model, simmpi.DefaultNetwork, probe, fs)
}

// account converts the DES timing into MSR energy-counter activity and
// reads the counters back into the result, one accountRank per rank, then
// observes every rank's wait in rank order and builds the per-rank health
// verdicts on a faulty system.
func account(sys *cluster.System, cfg Config, prof module.PowerProfile, ops []module.OperatingPoint, sim simmpi.Result) (Result, error) {
	ranks, err := parallel.Map(rankWorkers(cfg), len(cfg.Modules), func(rank int) (RankResult, error) {
		return accountRank(sys, cfg, prof, ops, sim, rank)
	})
	if err != nil {
		return Result{}, err
	}
	mRankWait.ObserveEach(len(ranks), func(rank int) float64 { return float64(rankWait(sim, rank)) })
	out := Result{Ranks: ranks, Elapsed: sim.Elapsed}
	// Reduce in rank order so float accumulation is bit-identical for every
	// worker count.
	var totalJ float64
	for _, r := range ranks {
		totalJ += float64(r.PkgEnergy) + float64(r.DramEnergy)
	}
	out.TotalEnergy = units.Joules(totalJ)
	out.AvgTotalPower = units.AvgPower(out.TotalEnergy, out.Elapsed)
	if in := sys.Faults(); in != nil {
		out.Health = health(in, cfg, sim, ranks)
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

// accountRank converts one rank's DES timing into energy-counter activity
// on its module and reads the counters back. On a healthy system the poll
// loop is one rapl.Controller.PollEnergy call, which reads the counters
// once per poll: the read that ends one chunk also starts the next, since
// nothing touches the counters in between. With a fault
// injector installed the poll loop hardens: each chunk is read at both
// ends, reads are retried with poll-time backoff, polls that keep failing
// or report implausible power are dropped (the rank's energies turn
// partial rather than wrong), and cap-enforcement lag adds its overshoot
// energy to the counters. It touches only the rank's own module.
func accountRank(sys *cluster.System, cfg Config, prof module.PowerProfile, ops []module.OperatingPoint, sim simmpi.Result, rank int) (RankResult, error) {
	in := sys.Faults()
	arch := sys.Spec.Arch
	id := cfg.Modules[rank]
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
		if pkgJ, dramJ, err = ctl.PollEnergy(prof, ops[rank], chunkBusy, chunkWait, chunks); err != nil {
			return RankResult{}, err
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
				return RankResult{}, err
			}
			if c == 0 && cfg.Mode == ModeCapped {
				// Cap-enforcement lag: the module ran uncapped until the
				// limit took hold; the counters observe the overshoot.
				if lag, ok := in.CapLag(id); ok && lag > 0 {
					if lag > float64(sim.Elapsed) {
						lag = float64(sim.Elapsed)
					}
					unc := sys.Module(id).Curve(prof).Uncapped()
					overPkg := (float64(unc.CPUPower) - float64(ops[rank].CPUPower)) * lag
					overDram := (float64(unc.DramPower) - float64(ops[rank].DramPower)) * lag
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
			ctl.AccountEnergy(prof, ops[rank], chunkBusy, chunkWait)
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
				return RankResult{}, err
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
	return RankResult{
		Rank: rank, ModuleID: id, Op: ops[rank],
		Busy: st.Busy, Wait: st.Wait, Sendrecv: st.Sendrecv, End: st.End,
		PkgEnergy: pkgJ, DramEnergy: dramJ,
		AvgCPUPower:  units.AvgPower(pkgJ, sim.Elapsed),
		AvgDramPower: units.AvgPower(dramJ, sim.Elapsed),
		DroppedPolls: dropped, Retries: retries,
	}, nil
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
func health(in *faults.Injector, cfg Config, sim simmpi.Result, ranks []RankResult) []ModuleHealth {
	out := make([]ModuleHealth, len(ranks))
	for rank, r := range ranks {
		h := ModuleHealth{Rank: rank, ModuleID: r.ModuleID, Verdict: VerdictOK}
		switch {
		case sim.Ranks[rank].Dead:
			h.Verdict = VerdictDead
			h.Detail = fmt.Sprintf("died at t=%.2fs", float64(sim.Ranks[rank].End))
			faults.MetricDeadRanks.Inc()
			faults.CountInjected(faults.KindModuleDeath)
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

// rankWorkers resolves the per-rank fan-out width. A module listed twice
// would see order-dependent limit programming and interleaved energy
// accounting, so duplicates force the serial path.
func rankWorkers(cfg Config) int {
	if cfg.Workers == 1 || len(cfg.Modules) == 1 {
		return 1
	}
	seen := make(map[int]struct{}, len(cfg.Modules))
	for _, id := range cfg.Modules {
		if _, dup := seen[id]; dup {
			return 1
		}
		seen[id] = struct{}{}
	}
	return cfg.Workers
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

// TestRun performs the paper's low-cost single-module test run: pin module
// id to frequency f, run the benchmark with a single rank, and report the
// measured average powers. The run is shortened (testIterations) because
// only steady-state power is needed.
//
// A test run is a pinned Run of that one-module configuration, measured by
// the same resolve, simulate and accountRank steps and counted as a pinned
// run, but it pays only for its simulation: one untraced measure.test_run
// span instead of Run's four, and no fan-out, recorder or attribution.
func TestRun(sys *cluster.System, bench *workload.Benchmark, id int, f units.Hertz) (TestRunResult, error) {
	short := *bench
	if short.Iterations > testIterations {
		short.Iterations = testIterations
	}
	cfg := Config{Bench: &short, Modules: []int{id}, Mode: ModePinned, Freqs: []units.Hertz{f}}
	if err := validate(sys, &cfg); err != nil {
		return TestRunResult{}, err
	}
	mRuns[ModePinned].Inc()
	var root obs.Span
	span := root.Start("measure.test_run")
	defer span.End()
	prof := short.ProfileFor(sys.Spec.Arch)
	op, err := resolve(sys, cfg, prof, 0, id)
	if err != nil {
		return TestRunResult{}, err
	}
	ops := []module.OperatingPoint{op}
	sim, err := simulate(sys, cfg, ops, nil)
	if err != nil {
		return TestRunResult{}, err
	}
	r, err := accountRank(sys, cfg, prof, ops, sim, 0)
	if err != nil {
		return TestRunResult{}, err
	}
	mRankWait.Observe(float64(rankWait(sim, 0)))
	if in := sys.Faults(); in != nil {
		health(in, cfg, sim, []RankResult{r}) // counts a dead test module as Run does
	}
	return TestRunResult{Freq: r.Op.Freq, CPUPower: r.AvgCPUPower, DramPower: r.AvgDramPower}, nil
}

// testIterations caps a test run's iteration count.
const testIterations = 5
