package gpu

import (
	"fmt"
	"math"

	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/xrand"
)

// GPU control-plane telemetry, mirroring the varpower_rapl_* families:
// limit writes, binding limits, clock-gating throttles, infeasible
// resolutions, and how many watts each binding limit clamped away. Handles
// are resolved once at init; recording is atomic and write-only.
var (
	mLimitWrites = telemetry.Default().Counter("varpower_gpu_limit_writes_total",
		"Board power limit writes (nvidia-smi -pl analogue).", nil)
	mClockLocks = telemetry.Default().Counter("varpower_gpu_clock_locks_total",
		"SM application-clock locks (nvidia-smi -lgc analogue).", nil)
	mClampEvents = telemetry.Default().Counter("varpower_gpu_clamp_events_total",
		"Operating-point resolutions where the enforced limit bound (delivered clock below the uncapped point).", nil)
	mThrottleEvents = telemetry.Default().Counter("varpower_gpu_throttle_events_total",
		"Resolutions that exhausted clock management and fell back to clock gating below ClockMin (or were spuriously throttled).", nil)
	mInfeasible = telemetry.Default().Counter("varpower_gpu_infeasible_total",
		"Resolutions with no feasible operating point (limit below the device's idle floor).", nil)
	mPowerAboveLimit = telemetry.Default().Histogram("varpower_gpu_power_above_limit_watts",
		"Natural (uncapped) board power in excess of a binding limit — how many watts enforcement clamped away.",
		telemetry.WattBuckets, nil)
)

// ControlModel parameterises the imperfection of the firmware's dynamic
// boost/limit controller. GPU boost algorithms hunt around the setpoint
// more than RAPL's package control loop does on these parts, so the defaults are
// slightly worse than rapl.DefaultControl — part of why locked clocks (the
// FS analogue) pay off on GPUs too.
type ControlModel struct {
	// Overhead is the mean fractional clock loss relative to the ideal
	// steady-state inversion of the power curve.
	Overhead float64
	// Jitter is the sigma of the per-(device, kernel, limit) deviation
	// around that mean.
	Jitter float64
}

// DefaultControl is the stock firmware controller model.
var DefaultControl = ControlModel{Overhead: 0.025, Jitter: 0.015}

// PerfectControl removes controller imperfection (ablations only).
var PerfectControl = ControlModel{}

// FaultModel perturbs the enforced side of the GPU power limit, exactly as
// rapl.FaultModel does for package caps. internal/faults satisfies it
// structurally; internal/cluster installs an ID-offsetting adapter so GPU
// devices occupy their own range of the fault plan's module-ID space.
type FaultModel interface {
	// EffectiveCap returns the limit enforcement actually holds for the
	// programmed value.
	EffectiveCap(deviceID int, programmed units.Watts) units.Watts
	// SpuriousThrottle reports a thermal episode as the fraction by which
	// the delivered clock drops.
	SpuriousThrottle(deviceID int) (frac float64, ok bool)
}

// Controller drives one device's management interface (power limit and
// locked application clocks). Unlike the RAPL controller there is no MSR
// emulation underneath: the NVML-style interface is watts-in/watts-out.
type Controller struct {
	dev     *Device
	control ControlModel
	seed    uint64
	faults  FaultModel

	limit  units.Watts // programmed power limit; 0 = board default (TDP)
	locked units.Hertz // locked application clock; 0 = unlocked
}

// NewController attaches a controller to a device.
func NewController(dev *Device, control ControlModel, seed uint64) *Controller {
	c := &Controller{}
	c.Init(dev, control, seed)
	return c
}

// Init (re)initialises the controller in place: every field is written, so
// a reset controller is bit-identical to a fresh one — the same pooled-
// replica contract the RAPL controller keeps.
func (c *Controller) Init(dev *Device, control ControlModel, seed uint64) {
	c.dev = dev
	c.control = control
	c.seed = seed
	c.faults = nil
	c.limit = 0
	c.locked = 0
}

// Device returns the controlled device.
func (c *Controller) Device() *Device { return c.dev }

// SetFaultModel attaches (or, with nil, detaches) the enforcement fault
// model; the model must be stateless.
func (c *Controller) SetFaultModel(f FaultModel) { c.faults = f }

// SetPowerLimit programs a board power limit. Requests are clamped into the
// architecture's [MinLimit, TDP] range, as the management tool does; the
// applied value is returned.
func (c *Controller) SetPowerLimit(w units.Watts) (units.Watts, error) {
	if w <= 0 {
		return 0, fmt.Errorf("gpu: non-positive power limit %v", w)
	}
	applied := c.dev.Arch.ClampLimit(w)
	c.limit = applied
	mLimitWrites.Inc()
	return applied, nil
}

// PowerLimit returns the programmed limit; ok is false at the board
// default.
func (c *Controller) PowerLimit() (units.Watts, bool) { return c.limit, c.limit != 0 }

// LockClocks locks the SM application clock, quantised down to the ladder —
// the FS enforcement path. Locked clocks are exact (no control-loop
// jitter), which is the same homogeneity root the CPU's cpufreq pinning
// has.
func (c *Controller) LockClocks(clock units.Hertz) (units.Hertz, error) {
	if clock <= 0 {
		return 0, fmt.Errorf("gpu: non-positive locked clock %v", clock)
	}
	q := c.dev.Arch.QuantizeDown(clock)
	c.locked = q
	mClockLocks.Inc()
	return q, nil
}

// UnlockClocks releases locked application clocks.
func (c *Controller) UnlockClocks() {
	c.locked = 0
}

// LockedClock returns the locked application clock; ok is false when
// unlocked.
func (c *Controller) LockedClock() (units.Hertz, bool) { return c.locked, c.locked != 0 }

// OperatingPoint resolves the device's steady-state operating point for
// kernel k under the programmed controls. ok is false when the enforced
// limit is below the device's idle floor.
//
// Locked clocks resolve exactly (modulo the always-on TDP ceiling); an
// enforced power limit resolves through the firmware controller, whose
// overhead and jitter cut the delivered clock while power still honours the
// limit — the same PC-vs-FS asymmetry the paper measures on RAPL.
func (c *Controller) OperatingPoint(k KernelProfile) (OperatingPoint, bool) {
	if c.locked != 0 {
		op := c.dev.AtClock(k, c.locked)
		if op.Throttled {
			mThrottleEvents.Inc()
		}
		return c.applySpurious(k, op), true
	}
	if c.limit == 0 {
		return c.applySpurious(k, c.dev.Uncapped(k)), true
	}
	limit := c.limit
	if c.faults != nil {
		limit = c.faults.EffectiveCap(c.dev.ID, limit)
	}
	op, ok := c.dev.Limited(k, limit)
	if !ok {
		mInfeasible.Inc()
		return OperatingPoint{}, false
	}
	if unc := c.dev.Uncapped(k); unc.Power > limit {
		mClampEvents.Inc()
		mPowerAboveLimit.Observe(float64(unc.Power - limit))
	}
	if op.Throttled {
		mThrottleEvents.Inc()
	}
	if loss := c.controlLoss(k, float64(limit)); loss > 0 {
		op.Clock = units.Hertz(float64(op.Clock) * (1 - loss))
		// The controller hovers at the setpoint: power stays at
		// min(limit, natural draw at the reduced clock).
		if natural := c.dev.BoardPower(k, op.Clock); natural < op.Power {
			op.Power = natural
		}
	}
	return c.applySpurious(k, op), true
}

// applySpurious applies an injected thermal episode to a resolved operating
// point; no-op without a fault model.
func (c *Controller) applySpurious(k KernelProfile, op OperatingPoint) OperatingPoint {
	if c.faults == nil {
		return op
	}
	frac, ok := c.faults.SpuriousThrottle(c.dev.ID)
	if !ok || frac <= 0 {
		return op
	}
	op.Clock = units.Hertz(float64(op.Clock) * (1 - frac))
	if natural := c.dev.BoardPower(k, op.Clock); natural < op.Power {
		op.Power = natural
	}
	op.Throttled = true
	mThrottleEvents.Inc()
	return op
}

// controlLoss returns the fractional clock shortfall for this
// (device, kernel, limit) combination, deterministic so repeated runs of
// one configuration agree.
func (c *Controller) controlLoss(k KernelProfile, limitWatts float64) float64 {
	if c.control.Overhead == 0 && c.control.Jitter == 0 {
		return 0
	}
	rng := xrand.NewKeyed(c.seed, 0x677075 /* "gpu" */, uint64(c.dev.ID),
		xrand.HashString(k.Kernel), math.Float64bits(limitWatts))
	loss := c.control.Overhead + c.control.Jitter*math.Abs(rng.Normal(0, 1))
	if loss < 0 {
		return 0
	}
	if loss > 0.5 {
		return 0.5
	}
	return loss
}
