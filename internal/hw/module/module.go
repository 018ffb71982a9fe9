// Package module models a compute module — one CPU socket and its
// associated DRAM — including its manufacturing-variation-specific power
// curves, frequency ladder, turbo behaviour, and the sub-fmin throttling
// cliff that drives the paper's tight-budget results.
//
// The central modelling assumption, validated by the paper's Figure 5
// (R² ≥ 0.99), is that both CPU and DRAM power are linear in CPU frequency
// over the controllable range [FMin, FNom]:
//
//	Pcpu(f)  = resid_w · ( Dyn_w · dyn_i · f/FNom  +  Static_w · leak_i · v(f) )
//	Pdram(f) = dram_i · ( DramBase_w  +  DramDyn_w · b(f) )
//
// where v(f) = 0.55 + 0.45·f/FNom captures the voltage scaling of static
// power, b(f) = 0.5 + 0.5·f/FNom captures the frequency dependence of
// memory traffic, and (leak_i, dyn_i, dram_i, resid_w) come from
// internal/variability. Both expressions are affine in f, so the whole
// module power curve is an affine function of frequency — matching the
// paper's model (Section 5.1.1) while still exhibiting per-module and
// per-workload variation.
package module

import (
	"fmt"
	"math"

	"varpower/internal/units"
	"varpower/internal/variability"
)

// Voltage/bandwidth frequency-dependence coefficients (see package doc).
const (
	staticFloor = 0.55 // fraction of static power that survives at f → 0
	staticSlope = 1 - staticFloor
	dramFloor   = 0.5 // fraction of DRAM dynamic power at f → 0
	dramSlope   = 1 - dramFloor
)

// Arch describes a processor architecture's fixed parameters (Table 2 plus
// the platform behaviours the paper relies on).
type Arch struct {
	Name     string // e.g. "Intel E5-2697v2 Ivy Bridge"
	Vendor   string
	CoresPer int

	FMin   units.Hertz // lowest selectable P-state
	FNom   units.Hertz // nominal (non-turbo) frequency
	FTurbo units.Hertz // maximum all-core turbo frequency

	// PStateStep is the granularity of the cpufreq frequency ladder.
	PStateStep units.Hertz

	TDP     units.Watts // CPU package TDP (the Naive scheme's Pcpu_max)
	DramTDP units.Watts // DRAM TDP (the Naive scheme's Pdram_max)

	// UncappedCeiling is the platform power limit that applies when no
	// explicit RAPL cap is set (long-term PL1 / current limit). Workloads
	// whose turbo power exceeds it get frequency-clamped — this is why the
	// paper's uncapped *DGEMM shows nearly constant CPU power (σ = 0.25 W)
	// while uncapped MHD shows the full manufacturing spread (σ = 3.55 W).
	UncappedCeiling units.Watts

	// IdlePower is the frequency-independent floor drawn by a socket that
	// is powered on but making no progress, at the average module; a
	// module's own floor is IdlePower scaled by its leakage factor. A RAPL
	// cap below the floor cannot be enforced at any operating point.
	IdlePower units.Watts

	// CliffExponent shapes performance loss when a RAPL cap falls below
	// Pcpu(FMin): the hardware duty-cycles (T-states / forced idle), and
	// effective throughput degrades superlinearly in the duty factor — the
	// paper's "rapid degradation below 40 W". 1 = proportional; 2–3 =
	// increasingly severe. See BenchmarkAblationCliff.
	CliffExponent float64

	// MemBW is the peak per-module memory bandwidth in bytes/s at FNom.
	// Effective bandwidth follows core frequency weakly (uncore clocks
	// track core clocks on these parts); see MemBWAt.
	MemBW float64

	// Variation is the architecture's manufacturing-variation profile.
	Variation variability.Profile
}

// Validate reports an error for inconsistent architecture parameters.
func (a *Arch) Validate() error {
	switch {
	case a.FMin <= 0 || a.FNom < a.FMin || a.FTurbo < a.FNom:
		return fmt.Errorf("module: arch %q has inconsistent frequencies (min %v, nom %v, turbo %v)",
			a.Name, a.FMin, a.FNom, a.FTurbo)
	case a.PStateStep <= 0:
		return fmt.Errorf("module: arch %q has non-positive P-state step", a.Name)
	case a.TDP <= 0:
		return fmt.Errorf("module: arch %q has non-positive TDP", a.Name)
	case a.IdlePower < 0 || a.IdlePower >= a.TDP:
		return fmt.Errorf("module: arch %q idle power %v outside (0, TDP)", a.Name, a.IdlePower)
	case a.CliffExponent < 1:
		return fmt.Errorf("module: arch %q cliff exponent %v < 1", a.Name, a.CliffExponent)
	}
	return a.Variation.Validate()
}

// PStates returns the selectable frequency ladder from FMin to FNom
// inclusive, ascending. (Turbo is not directly selectable; it is what the
// hardware does above FNom when uncapped, mirroring Intel's Turbo Boost.)
func (a *Arch) PStates() []units.Hertz {
	var ladder []units.Hertz
	for f := a.FMin; f <= a.FNom+a.PStateStep/2; f += a.PStateStep {
		if f > a.FNom {
			f = a.FNom
		}
		ladder = append(ladder, f)
	}
	if ladder[len(ladder)-1] != a.FNom {
		ladder = append(ladder, a.FNom)
	}
	return ladder
}

// MemBWAt returns the effective memory bandwidth (bytes/s) at CPU frequency
// f: BW(f) = MemBW · (0.45 + 0.55·f/FNom). The slope makes memory-bound
// code meaningfully (though sub-proportionally) frequency sensitive, which
// is why the paper sees *STREAM* behave qualitatively like *DGEMM under
// caps (Section 4.3).
func (a *Arch) MemBWAt(f units.Hertz) float64 {
	r := float64(f) / float64(a.FNom)
	if r < 0 {
		r = 0
	}
	return a.MemBW * (0.45 + 0.55*r)
}

// QuantizeDown returns the highest P-state not exceeding f, or FMin if f is
// below the ladder.
func (a *Arch) QuantizeDown(f units.Hertz) units.Hertz {
	if f <= a.FMin {
		return a.FMin
	}
	if f >= a.FNom {
		return a.FNom
	}
	steps := math.Floor(float64(f-a.FMin) / float64(a.PStateStep))
	return a.FMin + units.Hertz(steps)*a.PStateStep
}

// PowerProfile describes how a particular workload loads a module: its
// dynamic and static CPU power shares, its DRAM draw, and how reproducibly
// the workload's per-module power follows the latent factors.
//
// All wattages are for the architecture's *average* module at FNom (CPU) or
// at full memory traffic (DRAM); a concrete module scales them by its
// variation factors.
type PowerProfile struct {
	Workload string // key for the per-(module, workload) residual stream

	DynPower    units.Watts // dynamic CPU power at FNom, average module
	StaticPower units.Watts // static CPU power at FNom voltage, average module
	DramBase    units.Watts // frequency-independent DRAM power
	DramDyn     units.Watts // traffic-driven DRAM power at FNom

	// ResidualSigma is the per-(module, workload) lognormal sigma of the
	// deviation between this workload's true per-module power and what the
	// latent factors (and hence a PVT built from a different workload)
	// predict. It bounds calibration accuracy (Section 5.3).
	ResidualSigma float64
}

// ScaleCPU returns a copy with CPU power scaled by k (used to derive
// per-architecture profiles from the HA8K-calibrated reference numbers).
func (p PowerProfile) ScaleCPU(k float64) PowerProfile {
	p.DynPower = units.Watts(float64(p.DynPower) * k)
	p.StaticPower = units.Watts(float64(p.StaticPower) * k)
	return p
}

// ScaleDRAM returns a copy with DRAM power scaled by k.
func (p PowerProfile) ScaleDRAM(k float64) PowerProfile {
	p.DramBase = units.Watts(float64(p.DramBase) * k)
	p.DramDyn = units.Watts(float64(p.DramDyn) * k)
	return p
}

// Module is one concrete socket+DRAM pair with its own variation factors.
type Module struct {
	ID   int
	Arch *Arch

	factors variability.Factors
	seed    uint64 // system seed, for per-workload residual streams
}

// New creates module id of a system with the given seed, drawing its
// variation factors deterministically.
func New(id int, arch *Arch, seed uint64) *Module {
	m := &Module{}
	m.Init(id, arch, seed)
	return m
}

// Init (re)initialises the module in place — the constructor used by the
// struct-of-arrays layout in internal/cluster, where a system's modules
// live in one value slice instead of one heap object each. A Module is
// immutable after Init.
func (m *Module) Init(id int, arch *Arch, seed uint64) {
	m.ID = id
	m.Arch = arch
	m.factors = variability.Generate(seed, id, arch.Variation)
	m.seed = seed
}

// Factors exposes the module's latent variation factors. Production tooling
// cannot observe these directly — only the oracle schemes (VaPcOr, VaFsOr)
// and the test suite use them.
func (m *Module) Factors() variability.Factors { return m.factors }

// residual returns the per-workload multiplicative deviation for this module.
func (m *Module) residual(p PowerProfile) float64 {
	return variability.Residual(m.seed, m.ID, p.Workload, p.ResidualSigma)
}

// fRel returns f/FNom.
func (m *Module) fRel(f units.Hertz) float64 { return float64(f) / float64(m.Arch.FNom) }

// Curve is the module's power curve for one workload: its variation
// factors and the workload's profile with the per-(module, workload)
// residual drawn once. Resolving an operating point evaluates the curve
// several times; through one Curve it draws the residual (a keyed RNG and a
// lognormal draw) once instead of once per evaluation.
type Curve struct {
	m     *Module
	p     PowerProfile
	resid float64
}

// Curve resolves the module's power curve for workload p.
func (m *Module) Curve(p PowerProfile) Curve {
	return m.CurveWith(p, m.residual(p))
}

// CurveWith is Curve with the residual already drawn: resid must be
// Curve(p).Residual() of this module. A caller that resolves one module and
// workload many times keeps the residual as a plain value (a Curve points
// at one module) and rebuilds the curve from it without a draw.
func (m *Module) CurveWith(p PowerProfile, resid float64) Curve {
	return Curve{m: m, p: p, resid: resid}
}

// Residual is the curve's per-(module, workload) residual factor.
func (c Curve) Residual() float64 { return c.resid }

// Profile is the workload profile the curve was resolved for.
func (c Curve) Profile() PowerProfile { return c.p }

// CPUPower returns the CPU package power the module draws running the
// curve's workload at frequency f. Frequencies above FNom model turbo;
// below FMin they model duty-cycled operation (power keeps falling roughly
// linearly).
func (c Curve) CPUPower(f units.Hertz) units.Watts {
	m, p := c.m, c.p
	if f < 0 {
		f = 0
	}
	r := m.fRel(f)
	dyn := float64(p.DynPower) * m.factors.Dyn * r
	static := float64(p.StaticPower) * m.factors.Leak * (staticFloor + staticSlope*r)
	pw := c.resid * (dyn + static)
	floor := float64(m.IdleFloor())
	if pw < floor {
		pw = floor
	}
	return units.Watts(pw)
}

// DramPower is Module.DramPower on the curve's workload.
func (c Curve) DramPower(f units.Hertz) units.Watts { return c.m.DramPower(c.p, f) }

// DramPower returns the DRAM power drawn running workload p at CPU
// frequency f. DRAM traffic follows CPU frequency weakly (b(f) in the
// package doc), which keeps overall module power affine in f.
func (m *Module) DramPower(p PowerProfile, f units.Hertz) units.Watts {
	if f < 0 {
		f = 0
	}
	r := m.fRel(f)
	return units.Watts(m.factors.Dram * (float64(p.DramBase) + float64(p.DramDyn)*(dramFloor+dramSlope*r)))
}

// IdleFloor is this module's frequency-independent minimum CPU power. Only
// part of idle power is leakage (the rest is uncore, fabric and I/O that
// does not vary die-to-die), so the leakage factor is damped: floor =
// IdlePower · (0.6 + 0.4·leak).
func (m *Module) IdleFloor() units.Watts {
	return units.Watts(float64(m.Arch.IdlePower) * (0.6 + 0.4*m.factors.Leak))
}

// MaxTurbo returns this module's maximum turbo frequency (the architecture
// ceiling scaled by the module's turbo multiplier — spread is zero on
// frequency-binned parts).
func (m *Module) MaxTurbo() units.Hertz {
	return units.Hertz(float64(m.Arch.FTurbo) * m.factors.TurboMul)
}

// OperatingPoint is a steady-state (frequency, power) pair for one module
// running one workload.
type OperatingPoint struct {
	Freq      units.Hertz
	CPUPower  units.Watts
	DramPower units.Watts
	// Throttled reports that the module is duty-cycling below FMin because
	// its power cap is lower than Pcpu(FMin).
	Throttled bool
}

// ModulePower returns the total module power of the operating point.
func (o OperatingPoint) ModulePower() units.Watts { return o.CPUPower + o.DramPower }

// Uncapped returns the operating point with no explicit RAPL limit: the
// module runs at its maximum turbo frequency unless the platform ceiling
// clamps it first. Power-hungry workloads therefore pin every module at
// (nearly) the same power with varying frequency, while light workloads run
// every module at the same frequency with varying power — both behaviours
// appear in the paper's Figure 2(i)/(ii).
func (c Curve) Uncapped() OperatingPoint {
	m := c.m
	f := m.MaxTurbo()
	if c.CPUPower(f) > m.Arch.UncappedCeiling {
		// Clamp frequency to hold the package at the platform ceiling.
		if fc, ok := c.FreqForCPUPower(m.Arch.UncappedCeiling); ok {
			f = fc
		} else {
			f = m.Arch.FMin
		}
	}
	return c.at(f)
}

// at is the operating point at frequency f, with no cap enforced.
func (c Curve) at(f units.Hertz) OperatingPoint {
	return OperatingPoint{Freq: f, CPUPower: c.CPUPower(f), DramPower: c.DramPower(f)}
}

// FreqForCPUPower inverts the CPU power curve: it returns the frequency at
// which the module draws exactly cap watts on the curve's workload. ok is
// false when the cap is below Pcpu at zero frequency (the curve cannot
// reach it). The returned frequency is not clamped to the P-state ladder
// and may exceed FNom (turbo region) or fall below FMin (duty-cycle
// region); callers clamp as appropriate.
func (c Curve) FreqForCPUPower(cap units.Watts) (units.Hertz, bool) {
	// Solve resid·(Dyn·dyn·r + Static·leak·(floor + slope·r)) = cap for
	// r = f/FNom.
	m, p, resid := c.m, c.p, c.resid
	a := resid * (float64(p.DynPower)*m.factors.Dyn + float64(p.StaticPower)*m.factors.Leak*staticSlope)
	b := resid * float64(p.StaticPower) * m.factors.Leak * staticFloor
	if float64(cap) < b || float64(cap) < float64(m.IdleFloor()) {
		return 0, false
	}
	if a <= 0 {
		return m.Arch.FNom, true
	}
	r := (float64(cap) - b) / a
	return units.Hertz(r * float64(m.Arch.FNom)), true
}

// Capped returns the steady-state operating point under a RAPL CPU power
// cap. Three regimes:
//
//  1. cap ≥ uncapped power: the cap does not bind; the module runs at its
//     uncapped point.
//  2. Pcpu(FMin) ≤ cap < uncapped power: RAPL's DVFS holds the module at
//     the frequency where Pcpu(f) = cap.
//  3. cap < Pcpu(FMin): DVFS is exhausted; the hardware duty-cycles. The
//     effective frequency collapses as
//     FMin · ((cap − floor)/(Pcpu(FMin) − floor))^CliffExponent —
//     the paper's "rapid degradation" regime.
//
// ok is false only when the cap is below the module's idle floor, meaning
// no operating point can satisfy it (the paper's "–" table entries).
func (c Curve) Capped(cap units.Watts) (OperatingPoint, bool) {
	m := c.m
	unc := c.Uncapped()
	if cap >= unc.CPUPower {
		return unc, true
	}
	floor := m.IdleFloor()
	if cap <= floor {
		return OperatingPoint{}, false
	}
	pmin := c.CPUPower(m.Arch.FMin)
	if cap >= pmin {
		f, ok := c.FreqForCPUPower(cap)
		if !ok {
			return OperatingPoint{}, false
		}
		if f > unc.Freq {
			f = unc.Freq
		}
		return c.at(f), true
	}
	// Duty-cycle cliff: power tracks the cap, throughput collapses faster.
	duty := float64(cap-floor) / float64(pmin-floor)
	feff := units.Hertz(float64(m.Arch.FMin) * math.Pow(duty, m.Arch.CliffExponent))
	return OperatingPoint{
		Freq:      feff,
		CPUPower:  cap,
		DramPower: c.DramPower(feff),
		Throttled: true,
	}, true
}

// AtFrequency returns the operating point when the frequency is pinned
// directly (the FS implementation via cpufreq): power lands wherever the
// module's curves put it; no cap is enforced.
func (c Curve) AtFrequency(f units.Hertz) OperatingPoint {
	if f < c.m.Arch.FMin {
		f = c.m.Arch.FMin
	}
	if max := c.m.MaxTurbo(); f > max {
		f = max
	}
	return c.at(f)
}
