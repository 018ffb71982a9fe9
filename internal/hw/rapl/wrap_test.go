package rapl

import (
	"math"
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/units"
)

// wrapJoules is the 32-bit energy-status counter's period at the emulated
// 1/2^16 J energy unit.
const wrapJoules = 65536

// TestSinceSurvivesMultipleWraps is the regression test for the multi-wrap
// under-count: a single accounting quantum spanning several full 32-bit
// counter periods must difference to the true energy, not to the energy
// modulo one period. The uncapped point held for 3,000 s is well over four
// wraps; the old single-read extension saw only the residue (< 65,536 J).
func TestSinceSurvivesMultipleWraps(t *testing.T) {
	c := newController(PerfectControl)
	p := testProfile()
	op, ok := c.OperatingPoint(p)
	if !ok {
		t.Fatal("uncapped operating point infeasible")
	}

	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const busy = units.Seconds(3000)
	c.AccountEnergy(p, op, busy, 0)
	after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pkg, dram := after.Since(before)

	wantPkg := float64(op.CPUPower) * float64(busy)
	wantDram := float64(op.DramPower) * float64(busy)
	if wantPkg < 4*wrapJoules {
		t.Fatalf("test quantum too small to wrap: %v J", wantPkg)
	}
	if math.Abs(float64(pkg)-wantPkg) > 1 {
		t.Fatalf("pkg energy across %d wraps: got %v J, want %v J (mod-wrap residue would be %v J)",
			int(wantPkg/wrapJoules), pkg, wantPkg, math.Mod(wantPkg, wrapJoules))
	}
	if math.Abs(float64(dram)-wantDram) > 1 {
		t.Fatalf("dram energy: got %v J, want %v J", dram, wantDram)
	}
}

// TestSinceAcrossManySmallAccumulations mirrors the account loop's real
// access pattern: many sub-wrap quanta with no intermediate Snapshot still
// difference correctly over a multi-wrap total, because every read folds
// into the 64-bit extension.
func TestSinceAcrossManySmallAccumulations(t *testing.T) {
	c := newController(PerfectControl)
	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 10000.0 // J, under a quarter period
	const n = 40            // 400,000 J total: six wraps
	for i := 0; i < n; i++ {
		c.dev.AccumulateEnergy(quantum, quantum/4)
		if _, err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pkg, dram := after.Since(before)
	if math.Abs(float64(pkg)-n*quantum) > 1 {
		t.Fatalf("pkg %v J, want %v J", pkg, n*quantum)
	}
	if math.Abs(float64(dram)-n*quantum/4) > 1 {
		t.Fatalf("dram %v J, want %v J", dram, n*quantum/4)
	}
}

// TestAccountEnergySmallQuantumUnchanged pins the byte-identity contract:
// sub-quarter-wrap accumulations take the historical single-commit path, so
// a healthy run's counter trajectory is bit-identical to the pre-fix code.
func TestAccountEnergySmallQuantumUnchanged(t *testing.T) {
	mk := func() (*Controller, module.PowerProfile) {
		return newController(PerfectControl), testProfile()
	}
	a, pa := mk()
	b, pb := mk()
	opA, _ := a.OperatingPoint(pa)
	opB, _ := b.OperatingPoint(pb)

	// Reference: the raw device accumulation the historical path performed.
	dramBase := b.mod.DramPower(pb, b.mod.Arch.FMin)
	busy, wait := units.Seconds(30), units.Seconds(5)
	pkgJ := float64(opB.CPUPower)*float64(busy) + float64(opB.CPUPower)*WaitCPUFraction*float64(wait)
	dramJ := float64(opB.DramPower)*float64(busy) + float64(dramBase)*float64(wait)
	if pkgJ >= quarterWrapJoules {
		t.Fatalf("quantum unexpectedly large: %v J", pkgJ)
	}
	b.dev.AccumulateEnergy(pkgJ, dramJ)

	a.AccountEnergy(pa, opA, busy, wait)

	ra, _ := a.dev.Read(0x611)
	rb, _ := b.dev.Read(0x611)
	if ra != rb {
		t.Fatalf("small-quantum path diverged from single commit: %#x vs %#x", ra, rb)
	}
}
