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

// Listener observes a governor's control-plane actions (frequency pins and
// releases back to hardware control). Callbacks run synchronously on the
// goroutine driving the governor; a listener shared across modules must
// tolerate concurrent calls from different modules. Listeners observe only.
type Listener interface {
	// SpeedSet fires after SetSpeed pinned the module; f is the ladder
	// frequency actually selected.
	SpeedSet(moduleID int, f units.Hertz)
	// Released fires when the module returns to hardware-managed operation.
	Released(moduleID int)
}

// Governor pins one module's frequency.
type Governor struct {
	mod      *module.Module
	ladder   []units.Hertz
	target   units.Hertz
	pinned   bool
	listener Listener
}

// SetListener attaches (or, with nil, detaches) a control-plane listener.
// Attach before a run and detach after; not safe concurrently with use.
func (g *Governor) SetListener(l Listener) { g.listener = l }

// NewGovernor creates a governor for the module with its architecture's
// P-state ladder.
func NewGovernor(mod *module.Module) *Governor {
	g := &Governor{}
	g.Init(mod, mod.Arch.PStates())
	return g
}

// Init (re)initialises the governor in place: unpinned, listener detached,
// using the given P-state ladder. The ladder may be shared across the
// governors of one system (internal/cluster builds it once per
// architecture) — governors never mutate it, and Available hands out
// copies. Must not race with concurrent use; callers reset between runs.
func (g *Governor) Init(mod *module.Module, ladder []units.Hertz) {
	g.mod = mod
	g.ladder = ladder
	g.target = 0
	g.pinned = false
	g.listener = nil
}

// Available returns the selectable frequencies, ascending.
func (g *Governor) Available() []units.Hertz {
	out := make([]units.Hertz, len(g.ladder))
	copy(out, g.ladder)
	return out
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
	if g.listener != nil {
		g.listener.SpeedSet(g.mod.ID, g.target)
	}
	return g.target, nil
}

// Release returns the module to hardware-managed (ondemand/turbo) operation.
// A release of a pinned module is counted into b, which publishes it when
// it is flushed; nil publishes it at once.
func (g *Governor) Release(b *telemetry.Batch) {
	if g.pinned {
		b.Inc(mReleases)
		if g.listener != nil {
			g.listener.Released(g.mod.ID)
		}
	}
	g.pinned = false
}

// Pinned reports whether a userspace frequency is in force, and which.
func (g *Governor) Pinned() (units.Hertz, bool) { return g.target, g.pinned }

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
