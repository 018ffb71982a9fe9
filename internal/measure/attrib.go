// Attribution bridge: adapts one completed run into the observation the
// continuous power-attribution collector (internal/attrib) ingests. Like
// the flight-recorder bridge it is strictly write-only with respect to the
// measured Result — a run measures byte-identically with and without a
// collector attached.
package measure

import (
	"fmt"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/hw/module"
	"varpower/internal/hw/rapl"
	"varpower/internal/simmpi"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// observeAttrib builds the run's attribution observation and feeds it to
// cfg.Attrib. Per-rank, it pairs the measured module energy with the
// control plane's expectation for the same busy/wait profile:
//
//	expected = refCPU·(busy + WaitCPUFraction·wait)       (package)
//	         + Pdram(op)·busy + Pdram(fmin)·wait          (DRAM)
//
// where refCPU is the *programmed* cap under ModeCapped (min(cap, op) — a
// non-binding cap falls back to the resolved point) and the resolved
// operating point's CPU power otherwise. Because rapl.AccountEnergy charges
// the counters from the resolved point — which under a drifting cap is the
// *enforced* (drifted) limit — the measured/expected residual is exactly
// 1 on a faithful module and the drift magnitude when enforcement drifted,
// with wait fractions, slow nodes and non-binding caps all cancelling.
func observeAttrib(sys *cluster.System, cfg *Config, prof module.PowerProfile, ops []module.OperatingPoint, sim simmpi.Result, out Result) {
	arch := sys.Spec.Arch
	o := attrib.RunObservation{
		Tenant:   cfg.Tenant,
		JobID:    cfg.JobID,
		Workload: cfg.Bench.Name,
		Elapsed:  out.Elapsed,
		Ranks:    make([]attrib.RankObservation, len(out.Ranks)),
	}
	for rank, r := range out.Ranks {
		id := cfg.Modules[rank]
		op := ops[rank]
		st := sim.Ranks[rank]
		wait := sim.Elapsed - st.Busy
		if st.Dead {
			wait = st.End - st.Busy
		}
		if wait < 0 {
			wait = 0
		}
		refCPU := float64(op.CPUPower)
		if cfg.Mode == ModeCapped && float64(cfg.CPUCaps[rank]) < refCPU {
			refCPU = float64(cfg.CPUCaps[rank])
		}
		dramFMin := float64(sys.Module(id).DramPower(prof, arch.FMin))
		busyS, waitS := float64(st.Busy), float64(wait)
		expected := refCPU*(busyS+rapl.WaitCPUFraction*waitS) +
			float64(op.DramPower)*busyS + dramFMin*waitS
		// Busy/wait split weights mirror the accounting model so the split
		// is exact on healthy modules and proportionally scaled otherwise.
		busyModel := (float64(op.CPUPower) + float64(op.DramPower)) * busyS
		waitModel := (rapl.WaitCPUFraction*float64(op.CPUPower) + dramFMin) * waitS
		share := 0.0
		if busyModel+waitModel > 0 {
			share = busyModel / (busyModel + waitModel)
		}
		untrusted := st.Dead || r.DroppedPolls > 0
		if out.Health != nil {
			v := out.Health[rank].Verdict
			untrusted = v == VerdictDead || v == VerdictSensorFault
		}
		o.Ranks[rank] = attrib.RankObservation{
			Rank:       rank,
			Module:     id,
			Busy:       st.Busy,
			Wait:       wait,
			MeasuredJ:  r.PkgEnergy + r.DramEnergy,
			ExpectedJ:  units.Joules(expected),
			BusyShare:  share,
			IdleFloorW: sys.Module(id).IdleFloor(),
			Untrusted:  untrusted,
		}
	}
	cfg.Attrib.ObserveRun(o)
}

// CappedProbe measures a module's cap-enforcement fidelity: program capW on
// module id, run the shortened benchmark with a single rank under
// ModeCapped, and return the observed package energy over the cap-expected
// energy for the run's busy/wait profile — 1.0 when enforcement is
// faithful, the drift factor when the hardware holds a different limit.
// The caller picks a cap that binds (between the module's fmin and fmax
// draws) so the expectation is the cap itself; incremental PVT refresh
// (core.RefreshPVT) uses the factor to make refreshed entries
// enforcement-aware.
func CappedProbe(sys *cluster.System, bench *workload.Benchmark, id int, capW units.Watts) (float64, error) {
	short := *bench
	if short.Iterations > 5 {
		short.Iterations = 5
	}
	res, err := Run(sys, Config{
		Bench:   &short,
		Modules: []int{id},
		Mode:    ModeCapped,
		CPUCaps: []units.Watts{capW},
	})
	if err != nil {
		return 0, err
	}
	r := res.Ranks[0]
	wait := res.Elapsed - r.Busy
	if wait < 0 {
		wait = 0
	}
	denom := float64(capW) * (float64(r.Busy) + rapl.WaitCPUFraction*float64(wait))
	if denom <= 0 {
		return 0, fmt.Errorf("measure: capped probe on module %d measured no runtime", id)
	}
	return float64(r.PkgEnergy) / denom, nil
}
