// Package gpu models a discrete accelerator board as a first-class device
// type: its SM-clock ladder (the analogue of internal/hw/cpufreq P-states),
// its board power limit (the analogue of an internal/hw/rapl package cap,
// programmed in watts the way nvidia-smi -pl does), and a per-device power
// curve with manufacturing variation drawn from internal/variability.
//
// The modelling follows "Not All GPUs Are Created Equal" (arXiv 2208.11035),
// which measures up to ~22% power and ~8% performance variation across
// *identical* V100/A100 parts at scale — the modern restatement of the
// source paper's CPU thesis. Two behaviours fall out of the curve without
// being modelled explicitly:
//
//   - Under a common power limit, power-hungry (leaky) boards throttle to
//     lower SM clocks than frugal ones — performance variation emerges from
//     power variation, exactly as on RAPL-capped CPUs.
//   - Uncapped, every board boosts until it pins at the board TDP (GPU
//     firmware always enforces the board limit, unlike a cleared RAPL cap),
//     so compute-heavy kernels show near-constant power with varying clocks.
//
// Board power is affine in the SM clock over [ClockMin, ClockNom]:
//
//	Pboard(c) = resid·( Dyn_w·dyn_i·r + Static_w·leak_i·v(r) )
//	            + Mem_w·mem_i·b(r)
//
// with r = c/ClockNom, v(r) = 0.55 + 0.45·r (voltage scaling of leakage)
// and b(r) = 0.5 + 0.5·r (memory traffic follows SM clock weakly). The
// affine form keeps the inversion (ClockForPower) and the α-solve in
// internal/core identical in structure to the CPU path.
package gpu

import (
	"fmt"
	"math"

	"varpower/internal/units"
	"varpower/internal/variability"
)

// Voltage/traffic clock-dependence coefficients (see package doc). Shared
// with the CPU module model so the two device classes stay comparable.
const (
	staticFloor = 0.55
	staticSlope = 1 - staticFloor
	memFloor    = 0.5
	memSlope    = 1 - memFloor
)

// Arch describes a GPU product's fixed parameters — the accelerator
// counterpart of module.Arch.
type Arch struct {
	Name   string // e.g. "NVIDIA K20X"
	Vendor string
	SMs    int // streaming multiprocessors (informational)

	ClockMin   units.Hertz // lowest lockable SM application clock
	ClockNom   units.Hertz // nominal (base) SM clock
	ClockBoost units.Hertz // maximum boost clock

	// ClockStep is the granularity of the lockable SM-clock ladder
	// (nvidia-smi -lgc accepts discrete application clocks).
	ClockStep units.Hertz

	// TDP is the board power limit the firmware always enforces — the
	// default and maximum programmable power limit.
	TDP units.Watts

	// MinLimit is the lowest programmable power limit (nvidia-smi clamps
	// requests below it). Programmed limits are clamped into
	// [MinLimit, TDP].
	MinLimit units.Watts

	// IdlePower is the board floor at the average device; a device's own
	// floor scales with its leakage factor.
	IdlePower units.Watts

	// CliffExponent shapes throughput collapse when an enforced limit falls
	// below Pboard(ClockMin) and the firmware resorts to clock gating, the
	// same superlinear duty-cycle cliff the CPU model has.
	CliffExponent float64

	// MemBW is peak device memory bandwidth in bytes/s at ClockNom.
	MemBW float64

	// Variation is the device class's manufacturing-variation profile.
	// Factors map as: Leak → static board power, Dyn → SM switching power,
	// Dram → device-memory (HBM/GDDR) power, TurboMul → boost-clock
	// headroom.
	Variation variability.Profile
}

// Validate reports an error for inconsistent GPU architecture parameters.
func (a *Arch) Validate() error {
	switch {
	case a.ClockMin <= 0 || a.ClockNom < a.ClockMin || a.ClockBoost < a.ClockNom:
		return fmt.Errorf("gpu: arch %q has inconsistent clocks (min %v, nom %v, boost %v)",
			a.Name, a.ClockMin, a.ClockNom, a.ClockBoost)
	case a.ClockStep <= 0:
		return fmt.Errorf("gpu: arch %q has non-positive clock step", a.Name)
	case a.TDP <= 0:
		return fmt.Errorf("gpu: arch %q has non-positive TDP", a.Name)
	case a.MinLimit < 0 || a.MinLimit >= a.TDP:
		return fmt.Errorf("gpu: arch %q min power limit %v outside [0, TDP)", a.Name, a.MinLimit)
	case a.IdlePower < 0 || a.IdlePower >= a.TDP:
		return fmt.Errorf("gpu: arch %q idle power %v outside (0, TDP)", a.Name, a.IdlePower)
	case a.CliffExponent < 1:
		return fmt.Errorf("gpu: arch %q cliff exponent %v < 1", a.Name, a.CliffExponent)
	}
	return a.Variation.Validate()
}

// SMClocks returns the lockable application-clock ladder from ClockMin to
// ClockNom inclusive, ascending — the analogue of module.Arch.PStates.
// (Boost clocks above ClockNom are not lockable; they are what the firmware
// does on its own when power and thermals allow.)
func (a *Arch) SMClocks() []units.Hertz {
	var ladder []units.Hertz
	for c := a.ClockMin; c <= a.ClockNom+a.ClockStep/2; c += a.ClockStep {
		if c > a.ClockNom {
			c = a.ClockNom
		}
		ladder = append(ladder, c)
	}
	if ladder[len(ladder)-1] != a.ClockNom {
		ladder = append(ladder, a.ClockNom)
	}
	return ladder
}

// QuantizeDown returns the highest lockable clock not exceeding c, or
// ClockMin if c is below the ladder.
func (a *Arch) QuantizeDown(c units.Hertz) units.Hertz {
	if c <= a.ClockMin {
		return a.ClockMin
	}
	if c >= a.ClockNom {
		return a.ClockNom
	}
	steps := math.Floor(float64(c-a.ClockMin) / float64(a.ClockStep))
	return a.ClockMin + units.Hertz(steps)*a.ClockStep
}

// ClampLimit clamps a requested power limit into the programmable range
// [MinLimit, TDP], as the management interface does.
func (a *Arch) ClampLimit(w units.Watts) units.Watts {
	if w < a.MinLimit {
		return a.MinLimit
	}
	if w > a.TDP {
		return a.TDP
	}
	return w
}

// KernelProfile describes how a particular kernel (the offloaded portion of
// an application) loads a device — the accelerator counterpart of
// module.PowerProfile. Wattages are for the *average* device at ClockNom
// (SM power) or full memory traffic (memory power); a concrete device
// scales them by its variation factors.
type KernelProfile struct {
	Kernel string // key for the per-(device, kernel) residual stream

	DynPower    units.Watts // SM switching power at ClockNom, average device
	StaticPower units.Watts // static board power at ClockNom voltage, average device
	MemPower    units.Watts // device-memory power at full traffic, average device

	// ClockSensitivity is the fraction of kernel time that scales with the
	// SM clock (compute-boundness); the rest is memory/latency bound.
	ClockSensitivity float64

	// ResidualSigma bounds PVT-based calibration accuracy for this kernel,
	// exactly as on the CPU side.
	ResidualSigma float64
}

// Validate reports an error for inconsistent kernel profiles.
func (k *KernelProfile) Validate() error {
	switch {
	case k.Kernel == "":
		return fmt.Errorf("gpu: kernel profile with empty name")
	case k.DynPower < 0 || k.StaticPower < 0 || k.MemPower < 0:
		return fmt.Errorf("gpu: kernel %q has negative power coefficients", k.Kernel)
	case k.DynPower+k.StaticPower+k.MemPower == 0:
		return fmt.Errorf("gpu: kernel %q draws no power", k.Kernel)
	case k.ClockSensitivity < 0 || k.ClockSensitivity > 1:
		return fmt.Errorf("gpu: kernel %q clock sensitivity %v outside [0,1]", k.Kernel, k.ClockSensitivity)
	case k.ResidualSigma < 0:
		return fmt.Errorf("gpu: kernel %q negative residual sigma", k.Kernel)
	}
	return nil
}

// Device is one concrete board with its own variation factors.
type Device struct {
	ID   int
	Arch *Arch

	factors variability.Factors
	seed    uint64
}

// New creates device id of a system with the given seed.
func New(id int, arch *Arch, seed uint64) *Device {
	d := &Device{}
	d.Init(id, arch, seed)
	return d
}

// Init (re)initialises the device in place — the constructor used by the
// struct-of-arrays layout in internal/cluster. Factors come from the "gpu"
// domain stream, so a hybrid system's CPU modules keep the exact identities
// they have on the CPU-only preset. A Device is immutable after Init.
func (d *Device) Init(id int, arch *Arch, seed uint64) {
	d.ID = id
	d.Arch = arch
	d.factors = variability.GenerateDomain(seed, "gpu", id, arch.Variation)
	d.seed = seed
}

// Factors exposes the device's latent variation factors (oracle/test use
// only, as on the CPU side).
func (d *Device) Factors() variability.Factors { return d.factors }

// residual returns the per-kernel multiplicative deviation for this device.
// The kernel key is prefixed so a GPU kernel named like a CPU workload
// still draws an independent stream.
func (d *Device) residual(k KernelProfile) float64 {
	return variability.Residual(d.seed, d.ID, "gpu/"+k.Kernel, k.ResidualSigma)
}

// cRel returns c/ClockNom.
func (d *Device) cRel(c units.Hertz) float64 { return float64(c) / float64(d.Arch.ClockNom) }

// BoardPower returns the total board power drawn running kernel k at SM
// clock c. Clocks above ClockNom model boost; below ClockMin they model
// clock-gated operation.
func (d *Device) BoardPower(k KernelProfile, c units.Hertz) units.Watts {
	if c < 0 {
		c = 0
	}
	r := d.cRel(c)
	dyn := float64(k.DynPower) * d.factors.Dyn * r
	static := float64(k.StaticPower) * d.factors.Leak * (staticFloor + staticSlope*r)
	mem := float64(k.MemPower) * d.factors.Dram * (memFloor + memSlope*r)
	pw := d.residual(k)*(dyn+static) + mem
	if floor := float64(d.IdleFloor()); pw < floor {
		pw = floor
	}
	return units.Watts(pw)
}

// IdleFloor is this device's clock-independent minimum board power. As on
// the CPU side, only part of idle power is leakage, so the factor is
// damped.
func (d *Device) IdleFloor() units.Watts {
	return units.Watts(float64(d.Arch.IdlePower) * (0.6 + 0.4*d.factors.Leak))
}

// MaxBoost returns this device's maximum boost clock (architecture ceiling
// scaled by the device's headroom factor; spread is zero for clock-binned
// parts).
func (d *Device) MaxBoost() units.Hertz {
	return units.Hertz(float64(d.Arch.ClockBoost) * d.factors.TurboMul)
}

// OperatingPoint is a steady-state (clock, power) pair for one device
// running one kernel.
type OperatingPoint struct {
	Clock units.Hertz
	Power units.Watts
	// Throttled reports that the device is clock-gating below ClockMin
	// because its enforced limit is lower than Pboard(ClockMin).
	Throttled bool
}

// ClockForPower inverts the board power curve: the SM clock at which this
// device draws exactly target watts on kernel k. ok is false when the
// target is below the zero-clock power (the curve cannot reach it). The
// returned clock is not quantised and may exceed ClockNom (boost region) or
// fall below ClockMin (gated region); callers clamp as appropriate.
func (d *Device) ClockForPower(k KernelProfile, target units.Watts) (units.Hertz, bool) {
	resid := d.residual(k)
	a := resid*(float64(k.DynPower)*d.factors.Dyn+float64(k.StaticPower)*d.factors.Leak*staticSlope) +
		float64(k.MemPower)*d.factors.Dram*memSlope
	b := resid*float64(k.StaticPower)*d.factors.Leak*staticFloor +
		float64(k.MemPower)*d.factors.Dram*memFloor
	if float64(target) < b || float64(target) < float64(d.IdleFloor()) {
		return 0, false
	}
	if a <= 0 {
		return d.Arch.ClockNom, true
	}
	r := (float64(target) - b) / a
	return units.Hertz(r * float64(d.Arch.ClockNom)), true
}

// Uncapped returns the operating point with no programmed power limit. The
// firmware still enforces the board TDP: the device boosts until either its
// headroom ceiling or the TDP stops it. Power-hungry kernels therefore pin
// every device at (nearly) the board limit with varying clocks — the
// population behaviour arXiv 2208.11035 measures.
func (d *Device) Uncapped(k KernelProfile) OperatingPoint {
	c := d.MaxBoost()
	if d.BoardPower(k, c) > d.Arch.TDP {
		if cc, ok := d.ClockForPower(k, d.Arch.TDP); ok {
			c = cc
		} else {
			c = d.Arch.ClockMin
		}
	}
	return OperatingPoint{Clock: c, Power: d.BoardPower(k, c)}
}

// Limited returns the steady-state operating point under an enforced board
// power limit — the accelerator counterpart of module.Curve.Capped, with
// the same three regimes: non-binding, clock-managed, and the clock-gating
// cliff below ClockMin. ok is false only when the limit is below the device's
// idle floor (no operating point exists).
func (d *Device) Limited(k KernelProfile, limit units.Watts) (OperatingPoint, bool) {
	if limit > d.Arch.TDP {
		limit = d.Arch.TDP
	}
	unc := d.Uncapped(k)
	if limit >= unc.Power {
		return unc, true
	}
	floor := d.IdleFloor()
	if limit <= floor {
		return OperatingPoint{}, false
	}
	pmin := d.BoardPower(k, d.Arch.ClockMin)
	if limit >= pmin {
		c, ok := d.ClockForPower(k, limit)
		if !ok {
			return OperatingPoint{}, false
		}
		if c > unc.Clock {
			c = unc.Clock
		}
		return OperatingPoint{Clock: c, Power: d.BoardPower(k, c)}, true
	}
	// Clock-gating cliff: power tracks the limit, throughput collapses
	// superlinearly.
	duty := float64(limit-floor) / float64(pmin-floor)
	ceff := units.Hertz(float64(d.Arch.ClockMin) * math.Pow(duty, d.Arch.CliffExponent))
	return OperatingPoint{Clock: ceff, Power: limit, Throttled: true}, true
}

// AtClock returns the operating point with the SM clock locked directly
// (nvidia-smi -lgc — the FS implementation on GPUs). Unlike a pinned CPU
// P-state, the firmware still enforces the board TDP underneath: if the
// locked clock would exceed it, the delivered clock drops to hold TDP.
// Throttled reports that clamp.
func (d *Device) AtClock(k KernelProfile, c units.Hertz) OperatingPoint {
	if c < d.Arch.ClockMin {
		c = d.Arch.ClockMin
	}
	if max := d.MaxBoost(); c > max {
		c = max
	}
	if d.BoardPower(k, c) > d.Arch.TDP {
		if cc, ok := d.ClockForPower(k, d.Arch.TDP); ok && cc < c {
			return OperatingPoint{Clock: cc, Power: d.BoardPower(k, cc), Throttled: true}
		}
	}
	return OperatingPoint{Clock: c, Power: d.BoardPower(k, c)}
}
