// Package cpufreq emulates the cpufrequtils/userspace-governor interface
// the paper's Frequency Selection (FS) implementation uses: a discrete
// ladder of P-states per module, a governor that pins the clock to one of
// them, and no power enforcement whatsoever — power lands wherever the
// module's curves put it, which is why FS "has the potential to violate the
// derived CPU power cap" (Section 5.3) while delivering perfectly
// homogeneous performance.
package cpufreq

import (
	"fmt"

	"varpower/internal/hw/module"
	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// Governor telemetry: how often userspace pins a clock, how often the pin
// actually moved the target P-state (a real PLL relock on hardware), and
// how often modules are released back to hardware control.
var (
	mSetCalls = telemetry.Default().Counter("varpower_cpufreq_set_calls_total",
		"SetSpeed invocations (cpufreq-set writes).", nil)
	mTransitions = telemetry.Default().Counter("varpower_cpufreq_transitions_total",
		"Frequency transitions: SetSpeed calls whose selected P-state differs from the one in force.", nil)
	mReleases = telemetry.Default().Counter("varpower_cpufreq_releases_total",
		"Governor releases back to hardware-managed operation.", nil)
)

// Governor pins one module's frequency.
type Governor struct {
	mod    *module.Module
	target units.Hertz
	pinned bool
}

// NewGovernor creates an unpinned governor for the module.
func NewGovernor(mod *module.Module) *Governor {
	g := &Governor{}
	g.Init(mod)
	return g
}

// Init (re)initialises the governor in place: unpinned. Must not race with
// concurrent use; callers reset between runs.
func (g *Governor) Init(mod *module.Module) {
	g.mod = mod
	g.target = 0
	g.pinned = false
}

// SetSpeed pins the module to the highest available P-state not exceeding
// f (cpufreq-set --freq semantics round to a ladder entry). It returns the
// frequency actually selected. The call and transition counts go into b,
// which publishes them when it is flushed; nil publishes them at once.
func (g *Governor) SetSpeed(f units.Hertz, b *telemetry.Batch) (units.Hertz, error) {
	if f <= 0 {
		return 0, fmt.Errorf("cpufreq: non-positive frequency %v", f)
	}
	b.Inc(mSetCalls)
	next := g.mod.Arch.QuantizeDown(f)
	if !g.pinned || next != g.target {
		b.Inc(mTransitions)
	}
	g.target = next
	g.pinned = true
	return g.target, nil
}

// Release returns the module to hardware-managed (ondemand/turbo) operation
// and reports whether a userspace frequency was in force. A release of a
// pinned module is counted into b, which publishes it when it is flushed;
// nil publishes it at once.
func (g *Governor) Release(b *telemetry.Batch) bool {
	pinned := g.pinned
	if pinned {
		b.Inc(mReleases)
	}
	g.pinned = false
	return pinned
}

// OperatingPoint resolves the steady-state operating point for workload p:
// the pinned frequency when set, otherwise the module's uncapped behaviour.
// Frequency selection is exact — there is no control jitter, the clock is
// simply set — which is the root of FS's performance homogeneity.
func (g *Governor) OperatingPoint(p module.PowerProfile) module.OperatingPoint {
	if !g.pinned {
		return g.mod.Curve(p).Uncapped()
	}
	return g.mod.Curve(p).AtFrequency(g.target)
}
