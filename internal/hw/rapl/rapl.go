// Package rapl implements a libmsr-style Running Average Power Limit
// controller on top of the MSR emulation (internal/hw/msr) and the module
// power model (internal/hw/module).
//
// The observable contract reproduced here is the one the paper relies on
// (Sections 3.1.1 and 4.3): software writes a package power limit and an
// averaging window into MSR_PKG_POWER_LIMIT; the hardware then holds the
// average package power at (or below) the limit by adjusting the operating
// frequency, falling back to duty-cycle throttling once DVFS alone cannot
// satisfy the cap. Energy is observed through the wrapping
// MSR_PKG_ENERGY_STATUS / MSR_DRAM_ENERGY_STATUS counters.
//
// RAPL's internal control loop is dynamic and, as the paper notes
// (Section 5.3), "does not guarantee consistent performance across
// modules". ControlModel captures that: a small fixed overhead (time lost
// to the controller oscillating around the setpoint) plus a deterministic
// per-(module, workload, cap) jitter in delivered frequency. This is what
// makes the paper's FS implementation usually beat PC.
package rapl

import (
	"fmt"
	"math"
	"sync"

	"varpower/internal/hw/module"
	"varpower/internal/hw/msr"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/xrand"
)

// RAPL telemetry (the clamp-side half of the paper's Vp/Vf measurements):
// how often programmed caps bind, how often DVFS is exhausted into
// duty-cycle throttling, and how much natural draw each binding cap clamps
// away. Handles are resolved once at init; recording is atomic and
// write-only, so enabling telemetry cannot perturb any simulated result.
var (
	mLimitWrites = telemetry.Default().Counter("varpower_rapl_limit_writes_total",
		"Package power limit writes through MSR_PKG_POWER_LIMIT.", nil)
	mClampEvents = telemetry.Default().Counter("varpower_rapl_clamp_events_total",
		"Operating-point resolutions where the programmed cap bound (delivered frequency below the uncapped point).", nil)
	mThrottleEvents = telemetry.Default().Counter("varpower_rapl_throttle_events_total",
		"Resolutions that exhausted DVFS and fell back to duty-cycle throttling below FMin.", nil)
	mInfeasible = telemetry.Default().Counter("varpower_rapl_infeasible_total",
		"Resolutions with no feasible operating point (cap below the module's idle floor).", nil)
	mPowerAboveCap = telemetry.Default().Histogram("varpower_rapl_power_above_cap_watts",
		"Natural (uncapped) CPU power in excess of a binding cap — how many watts RAPL clamped away.",
		telemetry.WattBuckets, nil)
)

// ControlModel parameterises the imperfection of RAPL's dynamic control.
type ControlModel struct {
	// Overhead is the mean fractional frequency loss relative to the ideal
	// steady-state inversion of the power curve (controller oscillation,
	// PLL relock, clock-modulation quantisation).
	Overhead float64
	// Jitter is the sigma of the per-(module, workload, cap) deviation
	// around that mean.
	Jitter float64
}

// DefaultControl matches the few-percent PC-vs-FS gap observed in the
// paper's Figure 7 (VaFs averages 1.86×, VaPc 1.72×).
var DefaultControl = ControlModel{Overhead: 0.02, Jitter: 0.012}

// PerfectControl removes controller imperfection; used by ablation benches.
var PerfectControl = ControlModel{}

// Listener observes a controller's control-plane actions: limit writes,
// limit clears, and resolutions that fell below FMin into duty-cycle
// throttling. The flight recorder (internal/flight) attaches one per run
// via measure. Callbacks are invoked synchronously on whatever goroutine
// drives the controller — per-rank resolution may fan out, so a listener
// shared across modules must be safe for concurrent use from different
// modules (the same module is always driven from one goroutine at a time).
// Listeners observe only; they cannot change controller behaviour.
type Listener interface {
	// LimitSet fires after a package limit was programmed.
	LimitSet(moduleID int, w units.Watts)
	// LimitCleared fires after package capping was disabled.
	LimitCleared(moduleID int)
	// Throttled fires when a resolution exhausted DVFS below FMin;
	// delivered is the duty-cycled effective frequency.
	Throttled(moduleID int, delivered units.Hertz)
}

// FaultModel perturbs the *enforced* side of RAPL: the cap the hardware
// actually holds for a programmed limit (cap drift), and spurious
// thermal-throttle episodes that cut delivered frequency independently of
// any cap. internal/faults satisfies it structurally; nil keeps the exact
// pre-fault behavior.
type FaultModel interface {
	// EffectiveCap returns the limit enforcement actually holds for the
	// programmed value.
	EffectiveCap(moduleID int, programmed units.Watts) units.Watts
	// SpuriousThrottle reports a thermal-throttle episode as the fraction
	// by which delivered frequency drops.
	SpuriousThrottle(moduleID int) (frac float64, ok bool)
}

// Controller drives one module's RAPL interface.
type Controller struct {
	mod      *module.Module
	dev      *msr.Device
	control  ControlModel
	seed     uint64
	listener Listener
	faults   FaultModel

	// 64-bit extension of the 32-bit energy-status counters: every read
	// folds the wrapped delta since the previous read into ext*, so two
	// snapshots spaced further apart than one counter period (65,536 J at
	// RAPL's 1/2^16 J unit) still difference correctly — provided the
	// counters are observed at least once per wrap, which the stepped
	// accumulation in AccountEnergy guarantees. Guarded by emu: energy may
	// be accumulated concurrently with snapshot reads.
	emu               sync.Mutex
	extPkg, extDram   uint64
	lastPkg, lastDram uint64
	extInit           bool
}

// SetListener attaches (or, with nil, detaches) a control-plane listener.
// Not safe to call concurrently with controller use; attach before a run
// and detach after.
func (c *Controller) SetListener(l Listener) { c.listener = l }

// SetFaultModel attaches (or, with nil, detaches) the enforcement fault
// model. Install before any run; the model must be stateless (it is queried
// from whatever goroutine resolves the module's operating point).
func (c *Controller) SetFaultModel(f FaultModel) { c.faults = f }

// NewController attaches a RAPL controller to a module and its MSR device.
func NewController(mod *module.Module, dev *msr.Device, control ControlModel, seed uint64) *Controller {
	c := &Controller{}
	c.Init(mod, dev, control, seed)
	return c
}

// Init (re)initialises the controller in place: attachment fields are set,
// the listener and fault model are detached, and the 64-bit counter
// extension is cleared. Every field is written, so a controller reset
// through Init is bit-identical to a fresh one — required for pooled
// replica reuse (a stale extension origin would shift quantised energy
// deltas). Must not race with concurrent use; callers reset between runs.
func (c *Controller) Init(mod *module.Module, dev *msr.Device, control ControlModel, seed uint64) {
	c.mod = mod
	c.dev = dev
	c.control = control
	c.seed = seed
	c.listener = nil
	c.faults = nil
	c.extPkg, c.extDram = 0, 0
	c.lastPkg, c.lastDram = 0, 0
	c.extInit = false
}

// Module returns the controlled module.
func (c *Controller) Module() *module.Module { return c.mod }

// Device returns the underlying MSR device.
func (c *Controller) Device() *msr.Device { return c.dev }

// SetPkgLimit enables a package power cap of w averaged over the given
// window, writing the encoded limit through the MSR interface.
func (c *Controller) SetPkgLimit(w units.Watts, window units.Seconds) error {
	if w <= 0 {
		return fmt.Errorf("rapl: non-positive package limit %v", w)
	}
	raw := msr.EncodePowerLimit(msr.PowerLimit{
		Watts:   float64(w),
		Seconds: float64(window),
		Enabled: true,
		Clamp:   true,
	})
	mLimitWrites.Inc()
	if err := c.dev.Write(msr.PkgPowerLimit, raw); err != nil {
		return err
	}
	if c.listener != nil {
		c.listener.LimitSet(c.mod.ID, w)
	}
	return nil
}

// ClearPkgLimit disables package power capping.
func (c *Controller) ClearPkgLimit() error {
	if err := c.dev.Write(msr.PkgPowerLimit, 0); err != nil {
		return err
	}
	if c.listener != nil {
		c.listener.LimitCleared(c.mod.ID)
	}
	return nil
}

// PkgLimit reads back the decoded package power limit.
func (c *Controller) PkgLimit() (msr.PowerLimit, error) {
	raw, err := c.dev.Read(msr.PkgPowerLimit)
	if err != nil {
		return msr.PowerLimit{}, err
	}
	return msr.DecodePowerLimit(raw), nil
}

// OperatingPoint resolves the steady-state operating point of the module
// under the currently programmed limit for workload p. ok is false when the
// limit is below the module's idle floor — no operating point exists (the
// paper's "cannot be operated even with the minimum CPU frequency").
//
// The delivered frequency includes the control model's overhead and jitter;
// the delivered *power* still honours the cap (RAPL enforces strictly —
// Section 5.3: "it is guaranteed that PC will never exceed the CPU power
// constraint").
func (c *Controller) OperatingPoint(p module.PowerProfile) (module.OperatingPoint, bool) {
	// One curve for the whole resolution: the module's residual for p is
	// drawn once, not once per power evaluation.
	cv := c.mod.Curve(p)
	return c.OperatingPointOn(cv, cv.Uncapped())
}

// OperatingPointOn is OperatingPoint on cv, this module's curve for the
// workload, whose uncapped point unc (cv.Uncapped()) the caller has already
// evaluated: a caller that resolves one module and workload under many
// limits keeps the residual and the uncapped point and draws neither
// again.
func (c *Controller) OperatingPointOn(cv module.Curve, unc module.OperatingPoint) (module.OperatingPoint, bool) {
	lim, err := c.PkgLimit()
	if err != nil {
		return module.OperatingPoint{}, false
	}
	if !lim.Enabled {
		op := c.applySpurious(cv, unc)
		c.publishPerfStatus(op.Freq)
		return op, true
	}
	// An injected cap-drift fault makes enforcement hold a different limit
	// than software programmed — the module genuinely runs at the drifted
	// cap (the *enforced* value is fair game for injection; ground truth
	// never is).
	capW := units.Watts(lim.Watts)
	if c.faults != nil {
		capW = c.faults.EffectiveCap(c.mod.ID, capW)
	}
	op, ok := cv.Capped(capW)
	if !ok {
		mInfeasible.Inc()
		return module.OperatingPoint{}, false
	}
	if unc.CPUPower > capW {
		mClampEvents.Inc()
		mPowerAboveCap.Observe(float64(unc.CPUPower - capW))
	}
	if op.Throttled {
		mThrottleEvents.Inc()
		if c.listener != nil {
			c.listener.Throttled(c.mod.ID, op.Freq)
		}
	}
	if loss := c.controlLoss(cv.Profile(), float64(capW)); loss > 0 {
		op.Freq = units.Hertz(float64(op.Freq) * (1 - loss))
		// Power stays pinned at the cap when the cap binds; at a lower
		// frequency the module would naturally draw less, but RAPL's
		// controller hovers at the setpoint, so keep CPU power at min(cap,
		// natural draw at the reduced frequency) — whichever is lower.
		natural := cv.CPUPower(op.Freq)
		if natural < op.CPUPower {
			op.CPUPower = natural
		}
		op.DramPower = cv.DramPower(op.Freq)
	}
	op = c.applySpurious(cv, op)
	c.publishPerfStatus(op.Freq)
	return op, true
}

// applySpurious applies an injected thermal-throttle episode to a resolved
// operating point: delivered frequency drops by the episode's fraction and
// power follows the module's natural draw at the reduced clock. No-op
// without a fault model.
func (c *Controller) applySpurious(cv module.Curve, op module.OperatingPoint) module.OperatingPoint {
	if c.faults == nil {
		return op
	}
	frac, ok := c.faults.SpuriousThrottle(c.mod.ID)
	if !ok || frac <= 0 {
		return op
	}
	op.Freq = units.Hertz(float64(op.Freq) * (1 - frac))
	if natural := cv.CPUPower(op.Freq); natural < op.CPUPower {
		op.CPUPower = natural
	}
	op.DramPower = cv.DramPower(op.Freq)
	op.Throttled = true
	mThrottleEvents.Inc()
	if c.listener != nil {
		c.listener.Throttled(c.mod.ID, op.Freq)
	}
	return op
}

// controlLoss returns the fractional frequency shortfall for this
// (module, workload, cap) combination. Deterministic so that repeated runs
// of one configuration agree (the paper's < 0.5% run-to-run noise).
func (c *Controller) controlLoss(p module.PowerProfile, capWatts float64) float64 {
	if c.control.Overhead == 0 && c.control.Jitter == 0 {
		return 0
	}
	rng := xrand.NewKeyed(c.seed, 0x7261706c /* "rapl" */, uint64(c.mod.ID),
		xrand.HashString(p.Workload), math.Float64bits(capWatts))
	loss := c.control.Overhead + c.control.Jitter*math.Abs(rng.Normal(0, 1))
	if loss < 0 {
		return 0
	}
	if loss > 0.5 {
		return 0.5
	}
	return loss
}

// publishPerfStatus mirrors the delivered frequency into IA32_PERF_STATUS
// (ratio in 100 MHz units), as hardware does.
func (c *Controller) publishPerfStatus(f units.Hertz) {
	c.dev.SetPerfStatus(uint64(f.MHz()/100 + 0.5))
}

// WaitCPUFraction is the share of the operating point's CPU power a rank
// keeps burning while blocked in MPI: busy-polling spins the core, so only
// a small fraction is saved. Shared with the flight recorder's sample
// synthesis (internal/measure) so recorded power matches accounted energy.
const WaitCPUFraction = 0.92

// quarterWrapJoules is a quarter of the 32-bit counter's period (65,536 J
// at the 1/2^16 J energy unit). Accumulations below it take the historical
// single-commit path — bit-identical to the pre-fix behavior — while larger
// quanta are stepped so the counter is observed at least once per wrap.
const quarterWrapJoules = 16384

// AccountEnergy advances the module's energy counters by the given
// operating point held for busy seconds plus a wait period at reduced draw.
// MPI busy-polling keeps the core spinning, so waiting burns most of the
// compute power (WaitCPUFraction); DRAM drops to its base draw.
//
// A quantum larger than a quarter counter period is committed in steps with
// an internal counter poll after each, so even one huge accumulation cannot
// slip a full 32-bit wrap (or more) past the Snapshot extension —
// the multi-wrap gap that previously under-counted.
func (c *Controller) AccountEnergy(p module.PowerProfile, op module.OperatingPoint, busy, wait units.Seconds) {
	pkgJ, dramJ := c.quantum(p, op, busy, wait)
	if pkgJ < quarterWrapJoules && dramJ < quarterWrapJoules {
		c.dev.AccumulateEnergy(pkgJ, dramJ)
		return
	}
	steps := quantumSteps(pkgJ, dramJ)
	for i := 0; i < steps; i++ {
		c.dev.AccumulateEnergy(pkgJ/float64(steps), dramJ/float64(steps))
		// Fold the intermediate counter values into the 64-bit extension;
		// read failures (injected sensor drops) are tolerated — the next
		// successful poll reconciles whatever wraps it can still see.
		_, _ = c.Snapshot()
	}
}

// quantum is the package and DRAM energy of op held for busy seconds plus
// wait seconds of busy-polling.
func (c *Controller) quantum(p module.PowerProfile, op module.OperatingPoint, busy, wait units.Seconds) (pkgJ, dramJ float64) {
	dramBase := c.mod.DramPower(p, c.mod.Arch.FMin)
	pkgJ = float64(op.CPUPower)*float64(busy) + float64(op.CPUPower)*WaitCPUFraction*float64(wait)
	dramJ = float64(op.DramPower)*float64(busy) + float64(dramBase)*float64(wait)
	return pkgJ, dramJ
}

// quantumSteps is how many equal steps commit a quantum of at least a
// quarter counter period.
func quantumSteps(pkgJ, dramJ float64) int {
	return int(math.Max(pkgJ, dramJ)/quarterWrapJoules) + 1
}

// PollEnergy is a healthy run's energy poll loop on this module: it reads
// both counters, then chunks times accounts op held for busy plus wait
// seconds and reads them again, and returns the package and DRAM energy
// the reads saw, summed chunk by chunk. Result and extension state are bit
// for bit those of a Snapshot followed, per chunk, by AccountEnergy, a
// Snapshot and the sum of its Since from the one before. It pays less for
// them: each commit and the reads after it take the device lock once
// (msr.Device.AccumulateEnergyRead), the extension is folded under one hold
// of its lock for the whole loop, and the quantum is computed once. A
// device with a read interceptor (fault injection) is refused with
// msr.ErrIntercepted before anything is read or accumulated: its polls go
// through the interceptor one read at a time.
func (c *Controller) PollEnergy(p module.PowerProfile, op module.OperatingPoint, busy, wait units.Seconds, chunks int) (pkg, dram units.Joules, err error) {
	c.emu.Lock()
	defer c.emu.Unlock()
	rawPkg, rawDram, err := c.dev.ReadEnergy()
	if err != nil {
		return 0, 0, err
	}
	prev := c.fold(rawPkg, rawDram)
	pkgJ, dramJ := c.quantum(p, op, busy, wait)
	steps, stepPkg, stepDram := 1, pkgJ, dramJ
	if !(pkgJ < quarterWrapJoules && dramJ < quarterWrapJoules) { // AccountEnergy's test, NaN included
		steps = quantumSteps(pkgJ, dramJ)
		stepPkg, stepDram = pkgJ/float64(steps), dramJ/float64(steps)
	}
	for ch := 0; ch < chunks; ch++ {
		// A stepped quantum folds after every step, as AccountEnergy's
		// self-polls do; the chunk's closing read then sees no change.
		now := prev
		for i := 0; i < steps; i++ {
			if rawPkg, rawDram, err = c.dev.AccumulateEnergyRead(stepPkg, stepDram); err != nil {
				return 0, 0, err
			}
			now = c.fold(rawPkg, rawDram)
		}
		dp, dd := now.Since(prev)
		pkg += dp
		dram += dd
		prev = now
	}
	return pkg, dram, nil
}

// EnergySnapshot is a pair of extended (64-bit) counter reads used to
// compute deltas.
type EnergySnapshot struct {
	pkg  uint64
	dram uint64
}

// Snapshot reads both energy counters and folds them into the controller's
// 64-bit extension, returning the extended values. As long as the counters
// are read at least once per wrap period (the account loop polls every 30
// virtual seconds and AccountEnergy self-polls for oversized quanta),
// snapshots spaced arbitrarily far apart difference correctly — the 32-bit
// modular arithmetic that silently dropped whole periods is confined to
// successive raw reads.
func (c *Controller) Snapshot() (EnergySnapshot, error) {
	pkg, err := c.dev.Read(msr.PkgEnergyStatus)
	if err != nil {
		return EnergySnapshot{}, err
	}
	dram, err := c.dev.Read(msr.DramEnergyStatus)
	if err != nil {
		return EnergySnapshot{}, err
	}
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.fold(pkg, dram), nil
}

// fold folds raw counter reads into the 64-bit extension and returns the
// extended values. The caller holds emu.
func (c *Controller) fold(pkg, dram uint64) EnergySnapshot {
	if !c.extInit {
		c.lastPkg, c.lastDram = pkg, dram
		c.extInit = true
	}
	c.extPkg += (pkg - c.lastPkg) & 0xFFFFFFFF
	c.extDram += (dram - c.lastDram) & 0xFFFFFFFF
	c.lastPkg, c.lastDram = pkg, dram
	return EnergySnapshot{pkg: c.extPkg, dram: c.extDram}
}

// Since returns the package and DRAM energy accumulated between an earlier
// snapshot of the same controller and s. Extended counters make this
// wrap-safe across gaps of any length, not just gaps under one counter
// period. It reads no counter: a poll loop takes one Snapshot per poll
// and differences consecutive ones.
func (s EnergySnapshot) Since(earlier EnergySnapshot) (pkg, dram units.Joules) {
	return units.Joules(msr.ExtendedDeltaJoules(earlier.pkg, s.pkg)),
		units.Joules(msr.ExtendedDeltaJoules(earlier.dram, s.dram))
}
