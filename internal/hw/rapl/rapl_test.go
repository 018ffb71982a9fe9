package rapl

import (
	"math"
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/hw/msr"
	"varpower/internal/units"
	"varpower/internal/variability"
)

func testArch() *module.Arch {
	return &module.Arch{
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
}

func testProfile() module.PowerProfile {
	return module.PowerProfile{
		Workload: "test", DynPower: 60, StaticPower: 25,
		DramBase: 6, DramDyn: 6, ResidualSigma: 0.02,
	}
}

func newController(control ControlModel) *Controller {
	m := module.New(4, testArch(), 7)
	return NewController(m, msr.NewDevice(130), control, 7)
}

func TestSetAndReadLimit(t *testing.T) {
	c := newController(PerfectControl)
	if err := c.SetPkgLimit(70, 0.001, nil); err != nil {
		t.Fatal(err)
	}
	lim, err := c.PkgLimit()
	if err != nil {
		t.Fatal(err)
	}
	if !lim.Enabled || math.Abs(lim.Watts-70) > 0.2 {
		t.Fatalf("limit readback %+v", lim)
	}
	if err := c.ClearPkgLimit(); err != nil {
		t.Fatal(err)
	}
	lim, _ = c.PkgLimit()
	if lim.Enabled {
		t.Fatal("limit still enabled after clear")
	}
	if err := c.SetPkgLimit(0, 0.001, nil); err == nil {
		t.Fatal("zero limit accepted")
	}
}

func TestOperatingPointRespectsCap(t *testing.T) {
	c := newController(DefaultControl)
	p := testProfile()
	for _, cap := range []units.Watts{90, 70, 55, 45} {
		if err := c.SetPkgLimit(cap, 0.001, nil); err != nil {
			t.Fatal(err)
		}
		op, ok := c.OperatingPoint(p)
		if !ok {
			t.Fatalf("cap %v infeasible", cap)
		}
		if op.CPUPower > cap+1e-9 {
			t.Fatalf("RAPL exceeded its cap: %v > %v", op.CPUPower, cap)
		}
	}
}

func TestOperatingPointUncapped(t *testing.T) {
	c := newController(DefaultControl)
	p := testProfile()
	if err := c.ClearPkgLimit(); err != nil {
		t.Fatal(err)
	}
	op, ok := c.OperatingPoint(p)
	if !ok {
		t.Fatal("uncapped resolution failed")
	}
	want := c.Module().Curve(p).Uncapped()
	if op != want {
		t.Fatalf("uncapped point %+v, want %+v", op, want)
	}
}

func TestControlLossBounds(t *testing.T) {
	c := newController(DefaultControl)
	p := testProfile()
	ideal := newController(PerfectControl)
	for _, cap := range []units.Watts{90, 70, 55} {
		_ = c.SetPkgLimit(cap, 0.001, nil)
		_ = ideal.SetPkgLimit(cap, 0.001, nil)
		got, _ := c.OperatingPoint(p)
		want, _ := ideal.OperatingPoint(p)
		loss := 1 - float64(got.Freq)/float64(want.Freq)
		if loss < 0 || loss > 0.15 {
			t.Fatalf("control loss %v outside (0, 0.15] at cap %v", loss, cap)
		}
	}
}

func TestControlLossDeterministic(t *testing.T) {
	p := testProfile()
	a := newController(DefaultControl)
	b := newController(DefaultControl)
	_ = a.SetPkgLimit(70, 0.001, nil)
	_ = b.SetPkgLimit(70, 0.001, nil)
	opA, _ := a.OperatingPoint(p)
	opB, _ := b.OperatingPoint(p)
	if opA != opB {
		t.Fatalf("same configuration produced %+v vs %+v", opA, opB)
	}
}

func TestInfeasibleCap(t *testing.T) {
	c := newController(PerfectControl)
	floor := c.Module().IdleFloor()
	if err := c.SetPkgLimit(floor-2, 0.001, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.OperatingPoint(testProfile()); ok {
		t.Fatal("cap below idle floor resolved to an operating point")
	}
}

func TestPerfStatusPublished(t *testing.T) {
	c := newController(PerfectControl)
	p := testProfile()
	_ = c.SetPkgLimit(70, 0.001, nil)
	op, _ := c.OperatingPoint(p)
	raw, err := c.Device().Read(msr.IA32PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	ratio := raw >> 8 & 0xFF
	if math.Abs(float64(ratio)-op.Freq.MHz()/100) > 1 {
		t.Fatalf("perf status ratio %d does not match freq %v", ratio, op.Freq)
	}
}

func TestEnergyAccounting(t *testing.T) {
	c := newController(PerfectControl)
	p := testProfile()
	_ = c.SetPkgLimit(70, 0.001, nil)
	op, _ := c.OperatingPoint(p)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c.AccountEnergy(p, op, 10, 0)
	now, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pkg, dram := now.Since(snap)
	if math.Abs(float64(pkg)-float64(op.CPUPower)*10) > 0.01 {
		t.Errorf("pkg energy %v, want %v", pkg, float64(op.CPUPower)*10)
	}
	if math.Abs(float64(dram)-float64(op.DramPower)*10) > 0.01 {
		t.Errorf("dram energy %v, want %v", dram, float64(op.DramPower)*10)
	}

	// Waiting burns less CPU power and only base DRAM power.
	snap, _ = c.Snapshot()
	c.AccountEnergy(p, op, 0, 10)
	now, _ = c.Snapshot()
	pkgW, dramW := now.Since(snap)
	if pkgW >= pkg {
		t.Error("waiting should draw less package energy than computing")
	}
	if dramW >= dram {
		t.Error("waiting should draw less DRAM energy than computing")
	}
}
