// Package faults is the repository's deterministic fault-injection engine:
// a FaultPlan of timed, per-module fault events — stuck, spiking or dropped
// MSR energy reads, RAPL cap drift and enforcement lag, spurious
// thermal-throttle episodes, slow-node degradation, and outright module
// death — that the hardware substrate (internal/hw/msr, internal/hw/rapl,
// internal/hw/gpu) and the MPI simulator (internal/simmpi) consult at their
// interception points.
//
// The paper's budgeting framework assumes trustworthy power telemetry and
// perfectly enforced caps; real clusters deliver neither ("The Shift from
// Processor Power Consumption to Performance Variations", arXiv:1808.08106,
// documents exactly this class of runtime nondeterminism). This package
// makes those failure modes reproducible: a plan is either written by hand
// as JSON or generated from a seed and per-kind rate spec, and every query
// against it is a pure function of (plan, module, virtual time) — no wall
// clock, no global state — so the same seed and plan produce bit-identical
// faulty runs at any worker count.
//
// Faults perturb only *observed* or *enforced* values, never the hidden
// ground truth: a stuck energy counter under-reports the energy the module
// really burned, a drifting cap changes what RAPL actually enforces (the
// module genuinely runs at the drifted cap — that is enforcement failing),
// and a dead module genuinely stops computing. The consumers are hardened
// separately (bounded retry in internal/measure, MAD quarantine in
// internal/core, α re-solve in core.ReSolve, collective timeout in
// internal/simmpi) so that injected faults degrade results instead of
// corrupting them.
//
// The plan's clock is each run's virtual clock: every measured run starts
// at t = 0, so a plan describes the fault environment one job experiences.
// Control-plane faults (cap drift, cap lag, thermal throttle, slow node)
// apply to a run when their window opens at or before the run's resolution
// instant (t = 0 plus Start); sensor faults (stuck/spike/drop) gate on the
// energy-poll time; module death takes effect at Start on the run's
// timeline.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"varpower/internal/telemetry"
	"varpower/internal/xrand"
)

// Fault-injection telemetry: the varpower_fault_* family. Injected counts
// every query that actually perturbed an observed or enforced value (by
// fault kind); the consumer-side counters (retries, quarantines, re-solves,
// dead ranks) are incremented by the hardened layers and prove in CI that
// injection really fired. RecoveredWatts tracks the stranded power the most
// recent α re-solve handed back to survivors.
var (
	mInjected = func() map[Kind]*telemetry.Counter {
		m := make(map[Kind]*telemetry.Counter, len(AllKinds()))
		for _, k := range AllKinds() {
			m[k] = telemetry.Default().Counter("varpower_fault_injected_total",
				"Fault injections that perturbed an observed or enforced value, by fault kind.",
				telemetry.Labels{"kind": string(k)})
		}
		return m
	}()
	// MetricRetried counts bounded retry attempts consumers spent on flaky
	// reads (internal/measure's energy polls).
	MetricRetried = telemetry.Default().Counter("varpower_fault_retried_total",
		"Retry attempts against fault-injected sensor reads.", nil)
	// MetricQuarantined counts modules (or observations) quarantined by
	// robust outlier rejection instead of being averaged into a table.
	MetricQuarantined = telemetry.Default().Counter("varpower_fault_quarantined_total",
		"Modules or observations quarantined by MAD-based outlier rejection.", nil)
	// MetricResolves counts α re-solves that redistributed a lost
	// allocation across surviving modules.
	MetricResolves = telemetry.Default().Counter("varpower_fault_resolves_total",
		"Budget re-solves redistributing dead or rogue modules' allocations across survivors.", nil)
	// MetricDeadRanks counts ranks that died mid-run and were detected via
	// collective timeout.
	MetricDeadRanks = telemetry.Default().Counter("varpower_fault_dead_ranks_total",
		"Ranks lost to injected module death, detected by collective timeout.", nil)
	// MetricRecoveredWatts is the stranded power the most recent re-solve
	// recovered for the surviving modules.
	MetricRecoveredWatts = telemetry.Default().Gauge("varpower_fault_recovered_watts",
		"Stranded watts recovered by the most recent budget re-solve.", nil)
)

// Kind identifies a fault class.
type Kind string

// The fault taxonomy (DESIGN.md §9).
const (
	// KindStuckMSR freezes a module's RAPL energy-status counters: reads
	// during the window return the last value read before it. The counter
	// keeps counting underneath (ground truth is untouched); the first read
	// after the window observes the catch-up.
	KindStuckMSR Kind = "stuck-msr"
	// KindSpikeMSR multiplies raw energy-status reads by Magnitude
	// (default 100): the glitchy-ADC failure mode that produces impossible
	// per-chunk powers downstream.
	KindSpikeMSR Kind = "spike-msr"
	// KindDropMSR fails energy-status reads during the window (the msr-safe
	// EIO a flaky node returns under load).
	KindDropMSR Kind = "drop-msr"
	// KindCapDrift scales the *enforced* RAPL package limit to
	// Magnitude × the programmed value (default 1.15) for the whole run:
	// software programs one cap, hardware holds another.
	KindCapDrift Kind = "cap-drift"
	// KindCapLag delays cap enforcement: for the first Magnitude seconds of
	// the run (default 5) the module draws its uncapped power; the energy
	// counters observe the overshoot.
	KindCapLag Kind = "cap-lag"
	// KindThermalThrottle injects a spurious thermal-throttle episode: the
	// delivered frequency drops by the fraction Magnitude (default 0.2) for
	// the whole run, independent of the programmed cap.
	KindThermalThrottle Kind = "thermal-throttle"
	// KindSlowNode degrades a module's compute rate: every compute interval
	// takes Magnitude × as long (default 1.3). The straggler everyone else
	// waits for.
	KindSlowNode Kind = "slow-node"
	// KindModuleDeath kills the module at Start seconds into the run: its
	// rank stops computing and communicating; survivors detect it by
	// collective timeout. Duration is ignored (death is permanent).
	KindModuleDeath Kind = "module-death"
)

// AllKinds lists the fault taxonomy in documentation order.
func AllKinds() []Kind {
	return []Kind{KindStuckMSR, KindSpikeMSR, KindDropMSR, KindCapDrift,
		KindCapLag, KindThermalThrottle, KindSlowNode, KindModuleDeath}
}

// valid reports whether k names a known fault kind.
func (k Kind) valid() bool {
	for _, kk := range AllKinds() {
		if k == kk {
			return true
		}
	}
	return false
}

// defaultMagnitude returns the kind's magnitude when a plan leaves it zero.
func (k Kind) defaultMagnitude() float64 {
	switch k {
	case KindSpikeMSR:
		return 100
	case KindCapDrift:
		return 1.15
	case KindCapLag:
		return 5
	case KindThermalThrottle:
		return 0.2
	case KindSlowNode:
		return 1.3
	}
	return 0
}

// Event is one timed fault on one module. Start and Duration are virtual
// seconds on the run's own clock; Duration 0 means the fault persists to
// the end of the run. Magnitude is kind-specific (see the Kind constants);
// 0 selects the kind's default.
type Event struct {
	Module    int     `json:"module"`
	Kind      Kind    `json:"kind"`
	Start     float64 `json:"start"`
	Duration  float64 `json:"duration,omitempty"`
	Magnitude float64 `json:"magnitude,omitempty"`
}

// end returns the exclusive end of the event's window (+Inf when
// permanent).
func (e Event) end() float64 {
	if e.Duration <= 0 {
		return math.Inf(1)
	}
	return e.Start + e.Duration
}

// active reports whether the window covers virtual time t.
func (e Event) active(t float64) bool { return t >= e.Start && t < e.end() }

// magnitude returns the event's magnitude with the kind default applied.
func (e Event) magnitude() float64 {
	if e.Magnitude != 0 {
		return e.Magnitude
	}
	return e.Kind.defaultMagnitude()
}

// Plan is a complete fault schedule. The zero value (and nil) is the empty
// plan: no faults, and every consumer takes its exact pre-fault code path.
type Plan struct {
	// Name labels the plan in reports and traces.
	Name string `json:"name,omitempty"`
	// Events is the fault schedule. Order does not matter; validation
	// rejects overlapping events of the same (module, kind).
	Events []Event `json:"events"`
}

// Validate checks the plan's shape: known kinds, finite non-negative times,
// kind-appropriate magnitudes, non-negative module IDs, and no overlapping
// windows of the same (module, kind). It never panics, whatever the input.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if !e.Kind.valid() {
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
		if e.Module < 0 {
			return fmt.Errorf("faults: event %d: negative module %d", i, e.Module)
		}
		if math.IsNaN(e.Start) || math.IsInf(e.Start, 0) || e.Start < 0 {
			return fmt.Errorf("faults: event %d: bad start %v", i, e.Start)
		}
		if math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0) || e.Duration < 0 {
			return fmt.Errorf("faults: event %d: bad duration %v", i, e.Duration)
		}
		if math.IsNaN(e.Magnitude) || math.IsInf(e.Magnitude, 0) || e.Magnitude < 0 {
			return fmt.Errorf("faults: event %d: bad magnitude %v", i, e.Magnitude)
		}
		switch e.Kind {
		case KindCapDrift, KindSlowNode:
			if e.Magnitude != 0 && e.Magnitude < 0.05 {
				return fmt.Errorf("faults: event %d: %s magnitude %v below 0.05", i, e.Kind, e.Magnitude)
			}
		case KindThermalThrottle:
			if e.Magnitude >= 1 {
				return fmt.Errorf("faults: event %d: thermal-throttle magnitude %v must be < 1", i, e.Magnitude)
			}
		}
	}
	// Overlap check per (module, kind): sort a copy by start and scan.
	byKey := make(map[[2]int64][]Event)
	for _, e := range p.Events {
		key := [2]int64{int64(e.Module), int64(xrand.HashString(string(e.Kind)))}
		byKey[key] = append(byKey[key], e)
	}
	for _, evs := range byKey {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].end() {
				return fmt.Errorf("faults: overlapping %s events on module %d (windows [%g,%g) and [%g,%g))",
					evs[i].Kind, evs[i].Module,
					evs[i-1].Start, evs[i-1].end(), evs[i].Start, evs[i].end())
			}
		}
	}
	return nil
}

// Empty reports whether the plan schedules no faults at all.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Save serialises the plan as indented JSON.
func (p *Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Load deserialises and validates a plan written by Save (or by hand). A
// malformed document returns an error; it never panics.
func Load(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: load plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
