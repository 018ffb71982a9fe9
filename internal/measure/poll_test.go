package measure

import (
	"fmt"
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/hw/rapl"
	"varpower/internal/obs"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// referencePoll reads a healthy rank's energy the way accountRank did
// before consecutive polls shared a read: every chunk snapshots the
// counters before and after its energy is accumulated.
func referencePoll(ctl *rapl.Controller, prof module.PowerProfile, op module.OperatingPoint, chunks int, busy, wait units.Seconds) (pkgJ, dramJ units.Joules, err error) {
	for c := 0; c < chunks; c++ {
		before, err := ctl.Snapshot()
		if err != nil {
			return 0, 0, err
		}
		ctl.AccountEnergy(prof, op, busy, wait)
		after, err := ctl.Snapshot()
		if err != nil {
			return 0, 0, err
		}
		dp, dd := after.Since(before)
		pkgJ += dp
		dramJ += dd
	}
	return pkgJ, dramJ, nil
}

// TestHealthyPollReadsOnce: on a healthy system a poll's closing read also
// opens the next poll, and that measures what reading the counters at both
// ends of every chunk measures. A capped 480-module NPB-BT run long enough
// for at least ten polls per rank must report every rank field bit for bit
// as the same run's operating points and DES timing read through
// referencePoll on a replica in the same state.
func TestHealthyPollReadsOnce(t *testing.T) {
	const n = 480
	sys, ids := testSystem(t, n)
	bench := workload.BT()
	caps := make([]units.Watts, n)
	for i := range caps {
		caps[i] = 40
	}
	cfg := Config{Bench: bench, Modules: ids, Mode: ModeCapped, CPUCaps: caps, Workers: 1}
	ref := sys.Clone()
	got, err := Run(sys.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	prof := bench.ProfileFor(ref.Spec.Arch)
	var r Runner
	ops, err := r.resolveAll(ref, cfg, prof, obs.Span{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := r.simulate(ref, cfg, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	chunks := int(float64(sim.Elapsed)/30) + 1
	if chunks < 10 {
		t.Fatalf("elapsed %v spans %d polls, want at least 10", sim.Elapsed, chunks)
	}
	for rank, r := range got.Ranks {
		st := sim.Ranks[rank]
		pkgJ, dramJ, err := referencePoll(ref.RAPL(ids[rank]), prof, ops[rank], chunks,
			st.Busy/units.Seconds(chunks), rankWait(sim, rank)/units.Seconds(chunks))
		if err != nil {
			t.Fatal(err)
		}
		want := RankResult{
			Rank: rank, ModuleID: ids[rank], Op: ops[rank],
			Busy: st.Busy, Wait: st.Wait, Sendrecv: st.Sendrecv, End: st.End,
			PkgEnergy: pkgJ, DramEnergy: dramJ,
			AvgCPUPower:  units.AvgPower(pkgJ, sim.Elapsed),
			AvgDramPower: units.AvgPower(dramJ, sim.Elapsed),
		}
		// %v prints each float's shortest round-trip form, so equal
		// strings mean equal bits.
		if g, w := fmt.Sprintf("%+v", r), fmt.Sprintf("%+v", want); g != w {
			t.Fatalf("rank %d:\n got %s\nwant %s", rank, g, w)
		}
	}
}
