package cpufreq

import (
	"math"
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/units"
	"varpower/internal/variability"
)

func testModule() *module.Module {
	arch := &module.Arch{
		Name: "test-ivb", Vendor: "Intel", CoresPer: 12,
		FMin: units.GHz(1.2), FNom: units.GHz(2.7), FTurbo: units.GHz(3.0),
		PStateStep: units.MHz(100),
		TDP:        130, DramTDP: 62,
		UncappedCeiling: 100.9,
		IdlePower:       22,
		CliffExponent:   2.7,
		MemBW:           50e9,
		Variation:       variability.Profile{LeakSigma: 0.13, DynSigma: 0.032, DramSigma: 0.15},
	}
	return module.New(2, arch, 7)
}

func testProfile() module.PowerProfile {
	return module.PowerProfile{Workload: "t", DynPower: 60, StaticPower: 25, DramBase: 6, DramDyn: 6}
}

func TestAvailableLadder(t *testing.T) {
	g := NewGovernor(testModule())
	ladder := g.Available()
	if len(ladder) != 16 {
		t.Fatalf("ladder length %d, want 16", len(ladder))
	}
	// The returned slice must be a copy.
	ladder[0] = 0
	if g.Available()[0] == 0 {
		t.Fatal("Available exposes internal state")
	}
}

func TestSetSpeedQuantizes(t *testing.T) {
	g := NewGovernor(testModule())
	got, err := g.SetSpeed(units.GHz(1.87))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.GHz()-1.8) > 1e-9 {
		t.Fatalf("SetSpeed(1.87 GHz) selected %v, want 1.8 GHz", got)
	}
	pin, ok := g.Pinned()
	if !ok || pin != got {
		t.Fatalf("Pinned() = %v, %v", pin, ok)
	}
	if _, err := g.SetSpeed(0); err == nil {
		t.Fatal("zero frequency accepted")
	}
}

func TestOperatingPointExact(t *testing.T) {
	m := testModule()
	g := NewGovernor(m)
	p := testProfile()
	f, _ := g.SetSpeed(units.GHz(1.5))
	op := g.OperatingPoint(p)
	if op.Freq != f {
		t.Fatalf("pinned op freq %v, want %v", op.Freq, f)
	}
	if op.CPUPower != m.Curve(p).CPUPower(f) {
		t.Fatal("pinned power does not follow the module curve")
	}
	if op.Throttled {
		t.Fatal("pinned operation reports throttling")
	}
}

func TestReleaseReturnsToUncapped(t *testing.T) {
	m := testModule()
	g := NewGovernor(m)
	p := testProfile()
	_, _ = g.SetSpeed(units.GHz(1.5))
	g.Release()
	if _, ok := g.Pinned(); ok {
		t.Fatal("still pinned after release")
	}
	if op := g.OperatingPoint(p); op != m.Curve(p).Uncapped() {
		t.Fatal("released governor does not run uncapped")
	}
}
