package measure

import (
	"errors"
	"math"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func testSystem(t *testing.T, n int) (*cluster.System, []int) {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	return sys, ids
}

func TestUncappedRun(t *testing.T) {
	sys, ids := testSystem(t, 16)
	res, err := Run(sys, Config{Bench: workload.DGEMM(), Modules: ids, Mode: ModeUncapped})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 16 {
		t.Fatalf("rank count %d", len(res.Ranks))
	}
	if res.Elapsed <= 0 {
		t.Fatal("non-positive elapsed time")
	}
	for _, r := range res.Ranks {
		// Uncapped DGEMM rides the platform ceiling: frequency lies between
		// fmin (never throttled) and this module's max turbo.
		if r.Op.Freq < sys.Spec.Arch.FMin || r.Op.Freq > sys.Module(r.ModuleID).MaxTurbo() {
			t.Errorf("uncapped module %d at %v outside [fmin, turbo]", r.ModuleID, r.Op.Freq)
		}
		if r.Op.Throttled {
			t.Errorf("uncapped module %d reports throttling", r.ModuleID)
		}
		if r.End > res.Elapsed {
			t.Error("rank ends after the application")
		}
		if r.PkgEnergy <= 0 || r.DramEnergy <= 0 {
			t.Error("energy counters did not advance")
		}
	}
}

func TestCappedRunHoldsCaps(t *testing.T) {
	sys, ids := testSystem(t, 16)
	caps := make([]units.Watts, 16)
	for i := range caps {
		caps[i] = 60
	}
	res, err := Run(sys, Config{Bench: workload.DGEMM(), Modules: ids, Mode: ModeCapped, CPUCaps: caps})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranks {
		if r.Op.CPUPower > 60+1e-9 {
			t.Fatalf("module %d exceeded its cap: %v", r.ModuleID, r.Op.CPUPower)
		}
		if r.AvgCPUPower > 60+1e-6 {
			t.Fatalf("module %d measured above cap: %v", r.ModuleID, r.AvgCPUPower)
		}
	}
}

func TestPinnedRunUniformFrequency(t *testing.T) {
	sys, ids := testSystem(t, 16)
	freqs := make([]units.Hertz, 16)
	for i := range freqs {
		freqs[i] = units.GHz(1.5)
	}
	res, err := Run(sys, Config{Bench: workload.DGEMM(), Modules: ids, Mode: ModePinned, Freqs: freqs})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranks {
		if math.Abs(r.Op.Freq.GHz()-1.5) > 1e-9 {
			t.Fatalf("pinned frequency %v", r.Op.Freq)
		}
	}
	// With identical frequency and no sync, per-rank times differ only by
	// the run noise (< 0.5%, the paper's EP observation).
	var min, max units.Seconds
	min = res.Ranks[0].Busy
	max = min
	for _, r := range res.Ranks {
		if r.Busy < min {
			min = r.Busy
		}
		if r.Busy > max {
			max = r.Busy
		}
	}
	if spread := float64(max-min) / float64(min); spread > 0.01 {
		t.Fatalf("per-rank time spread %v at uniform frequency, want < 1%%", spread)
	}
}

func TestInfeasibleCap(t *testing.T) {
	sys, ids := testSystem(t, 4)
	caps := []units.Watts{5, 60, 60, 60}
	_, err := Run(sys, Config{Bench: workload.DGEMM(), Modules: ids, Mode: ModeCapped, CPUCaps: caps})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	sys, ids := testSystem(t, 4)
	bad := []Config{
		{},
		{Bench: workload.DGEMM()},
		{Bench: workload.DGEMM(), Modules: []int{99}},
		{Bench: workload.DGEMM(), Modules: ids, Mode: ModeCapped},
		{Bench: workload.DGEMM(), Modules: ids, Mode: ModePinned},
		{Bench: workload.DGEMM(), Modules: ids, Mode: Mode(42)},
	}
	for i, cfg := range bad {
		if _, err := Run(sys, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Capping on a non-RAPL system must be rejected.
	teller := cluster.MustNew(cluster.Teller(), 4, 1)
	tids, _ := teller.AllocateFirst(4)
	_, err := Run(teller, Config{
		Bench: workload.EP(), Modules: tids, Mode: ModeCapped,
		CPUCaps: []units.Watts{50, 50, 50, 50},
	})
	if err == nil {
		t.Error("power capping accepted on a PowerInsight-only system")
	}
}

func TestEnergyMatchesPowerTimesTime(t *testing.T) {
	sys, ids := testSystem(t, 4)
	res, err := Run(sys, Config{Bench: workload.DGEMM(), Modules: ids, Mode: ModeUncapped})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranks {
		// Busy at op power plus wait at ≤ op power must bracket the energy.
		upper := float64(r.Op.CPUPower) * float64(res.Elapsed) * 1.001
		lower := float64(r.Op.CPUPower) * float64(r.Busy) * 0.999
		if float64(r.PkgEnergy) > upper || float64(r.PkgEnergy) < lower {
			t.Fatalf("pkg energy %v outside [%v, %v]", r.PkgEnergy, lower, upper)
		}
	}
}

func TestLongRunCounterWraps(t *testing.T) {
	// A run long enough that each module accumulates several counter wraps
	// (> 64 kJ × k) must still measure the right average power.
	sys, ids := testSystem(t, 2)
	long := *workload.DGEMM()
	long.Iterations = 1       // keep DES cheap
	long.CyclesPerIter = 8e12 // ≈ 3000 s at 2.7 GHz → ≈ 300 kJ per module
	long.BytesPerIter = 0
	res, err := Run(sys, Config{Bench: &long, Modules: ids, Mode: ModeUncapped})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranks {
		if float64(r.PkgEnergy) < 100e3 {
			t.Fatalf("expected > 100 kJ (several wraps), measured %v", r.PkgEnergy)
		}
		if math.Abs(float64(r.AvgCPUPower-r.Op.CPUPower))/float64(r.Op.CPUPower) > 0.1 {
			t.Fatalf("avg power %v far from steady %v after wraps", r.AvgCPUPower, r.Op.CPUPower)
		}
	}
}

func TestTestRun(t *testing.T) {
	sys, _ := testSystem(t, 4)
	arch := sys.Spec.Arch
	bench := workload.MHD()
	hi, err := TestRun(sys, bench, 2, arch.FNom)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := TestRun(sys, bench, 2, arch.FMin)
	if err != nil {
		t.Fatal(err)
	}
	if hi.CPUPower <= lo.CPUPower {
		t.Fatal("power at fmax not above power at fmin")
	}
	// The measured powers track the module's true curve closely (single
	// rank → negligible wait dilution).
	prof := bench.ProfileFor(arch)
	want := sys.Module(2).Curve(prof).CPUPower(arch.FNom)
	if math.Abs(float64(hi.CPUPower-want))/float64(want) > 0.02 {
		t.Fatalf("test run measured %v, module model says %v", hi.CPUPower, want)
	}
	if hi.ModulePower() != hi.CPUPower+hi.DramPower {
		t.Fatal("ModulePower accessor wrong")
	}
}

func TestSendrecvAccounting(t *testing.T) {
	sys, ids := testSystem(t, 8)
	res, err := Run(sys, Config{Bench: workload.MHD(), Modules: ids, Mode: ModeUncapped})
	if err != nil {
		t.Fatal(err)
	}
	anySync := false
	for _, r := range res.Ranks {
		if r.Sendrecv > 0 {
			anySync = true
		}
	}
	if !anySync {
		t.Fatal("halo benchmark reported zero sendrecv time")
	}
}
