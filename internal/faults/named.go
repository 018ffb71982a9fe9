package faults

import (
	"fmt"
	"sort"
	"strings"
)

// Level is a named fault-severity rung: a human name ("low") bound to the
// per-module incidence rates it means. The ladder is the repository's shared
// vocabulary for "how broken is the hardware" — the resilience experiment
// sweeps it, and the varpowerd control plane accepts the names in solve and
// job requests so resilience what-ifs are servable without shipping a plan
// file.
type Level struct {
	Name string
	Spec RateSpec
}

// ladderHorizon is the virtual-seconds extent the ladder's windowed faults
// and deaths are placed inside. MHD at the resilience experiment's scales
// runs for tens of virtual seconds, so they land mid-run.
const ladderHorizon = 10

// Ladder returns the named severity rungs in increasing order, with windowed
// faults and deaths placed inside ladderHorizon. "none" is the healthy
// rung: its plan is empty and its injector nil, so it is byte-identical to
// not asking for faults at all.
func Ladder() []Level {
	return []Level{
		{Name: "none", Spec: RateSpec{}},
		{Name: "low", Spec: RateSpec{
			StuckMSR: 0.01, SpikeMSR: 0.01, DropMSR: 0.01,
			CapDrift: 0.01, SlowNode: 0.01, ModuleDeath: 0.01,
			Horizon: ladderHorizon,
		}},
		{Name: "medium", Spec: RateSpec{
			StuckMSR: 0.03, SpikeMSR: 0.03, DropMSR: 0.03,
			CapDrift: 0.03, CapLag: 0.02, ThermalThrottle: 0.02,
			SlowNode: 0.03, ModuleDeath: 0.03,
			Horizon: ladderHorizon,
		}},
		{Name: "high", Spec: RateSpec{
			StuckMSR: 0.06, SpikeMSR: 0.06, DropMSR: 0.06,
			CapDrift: 0.06, CapLag: 0.04, ThermalThrottle: 0.04,
			SlowNode: 0.06, ModuleDeath: 0.06,
			Horizon: ladderHorizon,
		}},
	}
}

// LevelNames returns the ladder's names in severity order.
func LevelNames() []string {
	rungs := Ladder()
	names := make([]string, len(rungs))
	for i, l := range rungs {
		names[i] = l.Name
	}
	return names
}

// LevelByName resolves a severity name (case-insensitive) to its rung.
// Unknown names report the valid vocabulary so API consumers get an
// actionable error.
func LevelByName(name string) (Level, error) {
	for _, l := range Ladder() {
		if strings.EqualFold(l.Name, name) {
			return l, nil
		}
	}
	names := LevelNames()
	sort.Strings(names)
	return Level{}, fmt.Errorf("faults: unknown fault level %q (have %v)", name, names)
}
