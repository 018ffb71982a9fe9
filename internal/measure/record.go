// Flight-recorder bridge: adapts one run's flight.Capture to simmpi.Probe
// for per-rank phase intervals and per-round stragglers, and synthesizes
// the per-module sample stream from the operating points the run resolved.
// The run's control events are recorded by resolve as it takes each
// action. Everything here is write-only with respect to simulation state:
// a run measures byte-identically with and without a recorder attached.
package measure

import (
	"varpower/internal/cluster"
	"varpower/internal/flight"
	"varpower/internal/hw/module"
	"varpower/internal/hw/rapl"
	"varpower/internal/simmpi"
	"varpower/internal/units"
)

// recording bridges one run to its flight capture. The probe methods are
// invoked from the DES loop, on the run's goroutine.
type recording struct {
	cap *flight.Capture
	// modules maps rank -> module ID (Config.Modules).
	modules []int
}

// probePhase maps the DES probe's phase to the recorder's.
func probePhase(p simmpi.ProbePhase) flight.Phase {
	switch p {
	case simmpi.ProbeCompute:
		return flight.PhaseCompute
	case simmpi.ProbeP2PWait:
		return flight.PhaseP2PWait
	case simmpi.ProbeCollectiveWait:
		return flight.PhaseCollectiveWait
	default:
		return flight.PhaseXfer
	}
}

// Interval implements simmpi.Probe.
func (rec *recording) Interval(rank, round int, phase simmpi.ProbePhase, start, end units.Seconds) {
	rec.cap.Interval(rank, rec.modules[rank], round, probePhase(phase), start, end)
}

// Collective implements simmpi.Probe.
func (rec *recording) Collective(round int, kind string, straggler int, earliest, latest units.Seconds) {
	rec.cap.Collective(round, kind, straggler, rec.modules[straggler], earliest, latest)
}

// finish records everything only known after the DES completed — the
// finalize-barrier tails, the duty-cycle throttle overlays, and each
// module's synthesized sample stream — and seals the capture. Must run on
// the caller's goroutine (it writes the capture's serial stores).
func (rec *recording) finish(sys *cluster.System, cfg *Config, prof module.PowerProfile, ops []module.OperatingPoint, sim simmpi.Result) {
	// Ranks that finished early busy-poll in MPI_Finalize until the
	// straggler arrives — the visible cost of Vt on the timeline. A dead
	// rank never reaches finalize; it gets a death event instead.
	for rank, st := range sim.Ranks {
		if st.Dead {
			rec.cap.Event(rec.modules[rank], flight.EventModuleDeath, float64(st.End))
			continue
		}
		rec.cap.Interval(rank, rec.modules[rank], -1, flight.PhaseFinalizeWait, st.End, sim.Elapsed)
	}
	// Modules duty-cycling below FMin throttle for the whole run.
	for rank := range sim.Ranks {
		if ops[rank].Throttled {
			rec.cap.Interval(rank, rec.modules[rank], -1, flight.PhaseThrottle, 0, sim.Elapsed)
		}
	}
	arch := sys.Spec.Arch
	tdp := arch.TDP + arch.DramTDP
	for rank := range sim.Ranks {
		id := rec.modules[rank]
		op := ops[rank]
		busy := flight.Draw{CPU: op.CPUPower, Dram: op.DramPower}
		// Waiting draw mirrors rapl.AccountEnergy: the core spins at
		// WaitCPUFraction of the operating point, DRAM idles at its FMin draw.
		wait := flight.Draw{
			CPU:  units.Watts(float64(op.CPUPower) * rapl.WaitCPUFraction),
			Dram: sys.Module(id).DramPower(prof, arch.FMin),
		}
		var capW units.Watts
		if cfg.Mode == ModeCapped {
			capW = cfg.CPUCaps[rank]
		}
		rec.cap.Synthesize(rank, id, busy, wait, capW, op.Freq, tdp, sim.Elapsed)
	}
	rec.cap.Seal(sim.Elapsed)
}
