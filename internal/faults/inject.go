package faults

import (
	"errors"
	"math"
	"sort"

	"varpower/internal/units"
)

// ErrDropped is the failure an energy-counter read returns while a drop-msr
// fault window is open — the emulated msr-safe EIO.
var ErrDropped = errors.New("faults: energy read dropped by injected sensor fault")

// Injector answers per-module fault queries against one validated plan. It
// is stateless and read-only after construction: every answer is a pure
// function of (plan, module, virtual time), so one injector is safely
// shared across system clones running concurrently, and the same plan gives
// bit-identical faulty runs at any worker count.
//
// Sensor-fault queries (EnergyRead) are windowed against the energy-poll
// clock; module death takes effect at its event's Start on the run clock.
// The control-plane kinds (cap-drift, cap-lag, thermal-throttle, slow-node)
// describe steady-state imperfections of the whole run — operating points
// are resolved once, before the simulated clock starts — so they apply to
// every run of a module that has such an event, regardless of the event's
// window.
type Injector struct {
	plan     *Plan
	byModule map[int][]Event
}

// NewInjector validates the plan and precomputes per-module event lists.
// A nil or empty plan yields a nil injector: the no-faults sentinel every
// consumer checks before taking its hardened path.
func NewInjector(p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Empty() {
		return nil, nil
	}
	in := &Injector{plan: p, byModule: make(map[int][]Event)}
	for _, e := range p.Events {
		in.byModule[e.Module] = append(in.byModule[e.Module], e)
	}
	for _, evs := range in.byModule {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	}
	return in, nil
}

// MustInjector is NewInjector for plans already validated by Load.
func MustInjector(p *Plan) *Injector {
	in, err := NewInjector(p)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the injector's fault plan.
func (in *Injector) Plan() *Plan { return in.plan }

// CountInjected increments the injected-faults counter for a kind. It is
// exported for consumers that detect a fault's effect away from the
// interception point (measure counts module deaths after the DES reports
// which ranks died).
func CountInjected(k Kind) {
	if c := mInjected[k]; c != nil {
		c.Inc()
	}
}

// sensorEvent returns the sensor fault (stuck/spike/drop) open on the
// module at poll time t, if any. Validation rejected overlapping windows of
// one kind; across kinds the first in start order wins.
func (in *Injector) sensorEvent(module int, t float64) (Event, bool) {
	if in == nil {
		return Event{}, false
	}
	for _, e := range in.byModule[module] {
		switch e.Kind {
		case KindStuckMSR, KindSpikeMSR, KindDropMSR:
			if e.active(t) {
				return e, true
			}
		}
	}
	return Event{}, false
}

// EnergyRead applies any open sensor fault to a raw energy-counter read at
// poll time t. raw is the true register value; last is the value the
// previous read of this register returned (hasLast false on the first
// read). The perturbed value (or ErrDropped) is what software observes; the
// register underneath is untouched.
func (in *Injector) EnergyRead(module int, t float64, raw, last uint64, hasLast bool) (uint64, error) {
	e, ok := in.sensorEvent(module, t)
	if !ok {
		return raw, nil
	}
	switch e.Kind {
	case KindStuckMSR:
		CountInjected(KindStuckMSR)
		if hasLast {
			return last, nil
		}
		return raw, nil
	case KindSpikeMSR:
		CountInjected(KindSpikeMSR)
		return uint64(float64(raw)*e.magnitude()) & 0xFFFFFFFF, nil
	case KindDropMSR:
		CountInjected(KindDropMSR)
		return 0, ErrDropped
	}
	return raw, nil
}

// controlEvent returns the module's first event of the given control-plane
// kind, if any.
func (in *Injector) controlEvent(module int, k Kind) (Event, bool) {
	if in == nil {
		return Event{}, false
	}
	for _, e := range in.byModule[module] {
		if e.Kind == k {
			return e, true
		}
	}
	return Event{}, false
}

// EffectiveCap returns the package limit the hardware actually enforces for
// a programmed cap: the programmed value scaled by any cap-drift event's
// magnitude. Satisfies rapl's fault-model hook.
func (in *Injector) EffectiveCap(module int, programmed units.Watts) units.Watts {
	e, ok := in.controlEvent(module, KindCapDrift)
	if !ok {
		return programmed
	}
	CountInjected(KindCapDrift)
	return units.Watts(float64(programmed) * e.magnitude())
}

// SpuriousThrottle reports a spurious thermal-throttle episode: the
// fraction by which the module's delivered frequency drops, independent of
// the programmed cap.
func (in *Injector) SpuriousThrottle(module int) (frac float64, ok bool) {
	e, found := in.controlEvent(module, KindThermalThrottle)
	if !found {
		return 0, false
	}
	CountInjected(KindThermalThrottle)
	return e.magnitude(), true
}

// CapLag returns how many run-seconds cap enforcement lags behind
// programming — the module draws its uncapped power until then, and the
// energy counters observe the overshoot.
func (in *Injector) CapLag(module int) (seconds float64, ok bool) {
	e, found := in.controlEvent(module, KindCapLag)
	if !found {
		return 0, false
	}
	return e.magnitude(), true
}

// SlowFactor returns the module's compute-time degradation multiplier
// (1 when healthy).
func (in *Injector) SlowFactor(module int) float64 {
	e, ok := in.controlEvent(module, KindSlowNode)
	if !ok {
		return 1
	}
	CountInjected(KindSlowNode)
	return e.magnitude()
}

// DeathTime returns the run time at which the module dies, if the plan
// kills it.
func (in *Injector) DeathTime(module int) (units.Seconds, bool) {
	e, ok := in.controlEvent(module, KindModuleDeath)
	if !ok {
		return 0, false
	}
	return units.Seconds(e.Start), true
}

// Faulted reports whether the plan schedules any fault for the module.
func (in *Injector) Faulted(module int) bool {
	return in != nil && len(in.byModule[module]) > 0
}

// Has reports whether the plan schedules an event of kind k for the module.
// Unlike the query methods above it has no counting side-effect, so health
// reporting can classify modules without inflating injection counters.
func (in *Injector) Has(module int, k Kind) bool {
	if in == nil {
		return false
	}
	for _, e := range in.byModule[module] {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// DeviceFaults adapts the injector to one MSR device's read-interception
// hook (msr.ReadInterceptor, satisfied structurally so the hardware layer
// stays free of this package).
type DeviceFaults struct {
	in     *Injector
	module int
}

// Device returns the interceptor for the module's MSR device.
func (in *Injector) Device(module int) *DeviceFaults {
	return &DeviceFaults{in: in, module: module}
}

// InterceptRead implements the msr read-interception hook for the module's
// energy-status registers.
func (f *DeviceFaults) InterceptRead(addr uint64, t float64, raw, last uint64, hasLast bool) (uint64, error) {
	return f.in.EnergyRead(f.module, t, raw, last, hasLast)
}

// MAD-based outlier quarantine: robust center/spread over a metric vector.
// Used by the install-time PVT sweep so a spiking module degrades its own
// entry instead of corrupting the population statistics.

// MADThreshold is the default rejection threshold in MAD multiples. The
// normal-consistency factor for MAD is 1.4826, so 8 MADs ≈ 12σ — far
// outside manufacturing variability (the HA8K population spans ≈ ±3σ) but
// immediately tripped by a ×100 sensor spike.
const MADThreshold = 8

// Outliers returns the indices of xs lying more than k·MAD from the
// median (k <= 0 selects MADThreshold). A degenerate population (MAD 0)
// falls back to a small relative epsilon of the median so identical values
// are never self-flagged.
func Outliers(xs []float64, k float64) []int {
	if len(xs) < 3 {
		return nil
	}
	if k <= 0 {
		k = MADThreshold
	}
	med, scale := RobustStats(xs)
	var out []int
	for i, x := range xs {
		if math.Abs(x-med) > k*scale {
			out = append(out, i)
		}
	}
	return out
}

// RobustStats returns the median and the MAD-based spread scale of xs — the
// exact statistics Outliers thresholds against, exported so other scorers
// (the drift detector in internal/attrib) report deviations in the same
// MAD-multiple units the quarantine machinery flags on. The scale is floored
// at a small relative epsilon of the median (absolute 1e-12 when the median
// is zero) so identical values never self-flag.
func RobustStats(xs []float64) (med, scale float64) {
	med = median(append([]float64(nil), xs...))
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	scale = median(devs)
	if floor := 1e-6 * math.Abs(med); scale < floor {
		scale = floor
	}
	if scale == 0 {
		scale = 1e-12
	}
	return med, scale
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
