package module

import (
	"math"
	"testing"
	"testing/quick"

	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/variability"
)

// testArch approximates the HA8K preset without importing cluster (which
// would create an import cycle in tests of lower layers).
func testArch() *Arch {
	return &Arch{
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

func testProfile() PowerProfile {
	return PowerProfile{
		Workload: "test", DynPower: 60, StaticPower: 25,
		DramBase: 6, DramDyn: 6, ResidualSigma: 0.02,
	}
}

func TestArchValidate(t *testing.T) {
	if err := testArch().Validate(); err != nil {
		t.Fatalf("valid arch rejected: %v", err)
	}
	mutations := []func(*Arch){
		func(a *Arch) { a.FMin = 0 },
		func(a *Arch) { a.FNom = a.FMin / 2 },
		func(a *Arch) { a.FTurbo = a.FNom - 1 },
		func(a *Arch) { a.PStateStep = 0 },
		func(a *Arch) { a.TDP = 0 },
		func(a *Arch) { a.IdlePower = a.TDP + 1 },
		func(a *Arch) { a.CliffExponent = 0.5 },
		func(a *Arch) { a.Variation.LeakSigma = -1 },
	}
	for i, mutate := range mutations {
		a := testArch()
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPStatesLadder(t *testing.T) {
	a := testArch()
	ladder := a.PStates()
	if len(ladder) != 16 {
		t.Fatalf("1.2..2.7 GHz in 100 MHz steps should have 16 entries, got %d", len(ladder))
	}
	if ladder[0] != a.FMin || ladder[len(ladder)-1] != a.FNom {
		t.Fatalf("ladder endpoints wrong: %v .. %v", ladder[0], ladder[len(ladder)-1])
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			t.Fatalf("ladder not ascending at %d", i)
		}
	}
}

func TestQuantizeDown(t *testing.T) {
	a := testArch()
	cases := []struct{ in, want float64 }{
		{2.7, 2.7}, {2.75, 2.7}, {2.69, 2.6}, {1.2, 1.2}, {1.0, 1.2}, {1.31, 1.3},
	}
	for _, c := range cases {
		got := a.QuantizeDown(units.GHz(c.in))
		if math.Abs(got.GHz()-c.want) > 1e-9 {
			t.Errorf("QuantizeDown(%v GHz) = %v, want %v GHz", c.in, got, c.want)
		}
	}
}

func TestMemBWAt(t *testing.T) {
	a := testArch()
	if bw := a.MemBWAt(a.FNom); math.Abs(bw-a.MemBW) > 1 {
		t.Fatalf("bandwidth at nominal = %v, want %v", bw, a.MemBW)
	}
	if a.MemBWAt(a.FMin) >= a.MemBWAt(a.FNom) {
		t.Fatal("bandwidth should drop with frequency")
	}
	if a.MemBWAt(a.FMin) < 0.5*a.MemBW {
		t.Fatal("bandwidth drops too steeply")
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	a := testArch()
	p := testProfile()
	f := func(id uint16, f1, f2 float64) bool {
		m := New(int(id), a, 99)
		lo := units.GHz(1 + math.Mod(math.Abs(f1), 2))
		hi := lo + units.GHz(math.Mod(math.Abs(f2), 1)+0.01)
		return m.Curve(p).CPUPower(hi) >= m.Curve(p).CPUPower(lo) &&
			m.DramPower(p, hi) >= m.DramPower(p, lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqForCPUPowerRoundTrip(t *testing.T) {
	a := testArch()
	p := testProfile()
	f := func(id uint16, fv float64) bool {
		m := New(int(id), a, 7)
		freq := units.GHz(1.2 + math.Mod(math.Abs(fv), 1.8))
		want := m.Curve(p).CPUPower(freq)
		got, ok := m.Curve(p).FreqForCPUPower(want)
		if !ok {
			return false
		}
		return math.Abs(got.GHz()-freq.GHz()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqForCPUPowerBelowFloor(t *testing.T) {
	m := New(0, testArch(), 7)
	if _, ok := m.Curve(testProfile()).FreqForCPUPower(1); ok {
		t.Fatal("cap of 1 W should be unreachable")
	}
}

func TestCappedRegimes(t *testing.T) {
	a := testArch()
	p := testProfile()
	m := New(3, a, 7)
	unc := m.Curve(p).Uncapped()

	// Regime 1: cap above uncapped power does not bind.
	op, ok := m.Curve(p).Capped(unc.CPUPower + 20)
	if !ok || op != unc {
		t.Fatalf("loose cap changed operating point: %+v vs %+v", op, unc)
	}

	// Regime 2: DVFS range — power pinned at cap, frequency in range.
	mid := m.Curve(p).CPUPower(units.GHz(1.8))
	op, ok = m.Curve(p).Capped(mid)
	if !ok || op.Throttled {
		t.Fatalf("mid cap failed: %+v", op)
	}
	if math.Abs(float64(op.CPUPower-mid)) > 1e-9 {
		t.Fatalf("capped power %v != cap %v", op.CPUPower, mid)
	}
	if math.Abs(op.Freq.GHz()-1.8) > 1e-6 {
		t.Fatalf("capped freq %v, want 1.8 GHz", op.Freq)
	}

	// Regime 3: below Pcpu(fmin) — duty-cycle cliff.
	pmin := m.Curve(p).CPUPower(a.FMin)
	floor := m.IdleFloor()
	cliffCap := floor + (pmin-floor)/2
	op, ok = m.Curve(p).Capped(cliffCap)
	if !ok || !op.Throttled {
		t.Fatalf("cliff cap not throttled: %+v", op)
	}
	if op.Freq >= a.FMin {
		t.Fatalf("throttled frequency %v not below fmin", op.Freq)
	}
	wantF := float64(a.FMin) * math.Pow(0.5, a.CliffExponent)
	if math.Abs(float64(op.Freq)-wantF)/wantF > 1e-9 {
		t.Fatalf("cliff frequency %v, want %v", float64(op.Freq), wantF)
	}

	// Regime 4: below the idle floor — no operating point.
	if _, ok := m.Curve(p).Capped(floor - 1); ok {
		t.Fatal("cap below idle floor should be infeasible")
	}
}

func TestCliffMonotoneInCap(t *testing.T) {
	a := testArch()
	p := testProfile()
	m := New(5, a, 7)
	floor := float64(m.IdleFloor())
	pmin := float64(m.Curve(p).CPUPower(a.FMin))
	prev := units.Hertz(0)
	for frac := 0.05; frac <= 1; frac += 0.05 {
		cap := units.Watts(floor + frac*(pmin-floor))
		op, ok := m.Curve(p).Capped(cap)
		if !ok {
			t.Fatalf("cap %v infeasible", cap)
		}
		if op.Freq < prev {
			t.Fatalf("throttled frequency not monotone at cap %v", cap)
		}
		prev = op.Freq
	}
}

func TestUncappedCeilingClamp(t *testing.T) {
	a := testArch()
	// A hungry profile that exceeds the ceiling at turbo on every module.
	hungry := PowerProfile{Workload: "hungry", DynPower: 90, StaticPower: 30, DramBase: 6, DramDyn: 6}
	light := PowerProfile{Workload: "light", DynPower: 30, StaticPower: 8, DramBase: 2, DramDyn: 2}
	var clampedPow, lightFreq []float64
	for i := 0; i < 200; i++ {
		m := New(i, a, 11)
		hop := m.Curve(hungry).Uncapped()
		if hop.CPUPower > a.UncappedCeiling+1e-9 {
			t.Fatalf("uncapped power %v exceeds ceiling", hop.CPUPower)
		}
		clampedPow = append(clampedPow, float64(hop.CPUPower))
		lop := m.Curve(light).Uncapped()
		lightFreq = append(lightFreq, lop.Freq.GHz())
	}
	// Hungry: power pinned near the ceiling (small spread); light: all at
	// max turbo (no frequency spread) with power free to vary.
	if s := stats.MustSummarize(clampedPow); s.Std > 3 {
		t.Errorf("ceiling-clamped power spread too wide: σ=%v", s.Std)
	}
	if v := stats.Variation(lightFreq); v != 1 {
		t.Errorf("light workload turbo frequency varies (binned parts): Vf=%v", v)
	}
}

func TestAtFrequencyClamps(t *testing.T) {
	a := testArch()
	p := testProfile()
	m := New(9, a, 7)
	if op := m.Curve(p).AtFrequency(units.GHz(0.5)); op.Freq != a.FMin {
		t.Fatalf("below-fmin pin gave %v", op.Freq)
	}
	if op := m.Curve(p).AtFrequency(units.GHz(9)); op.Freq != m.MaxTurbo() {
		t.Fatalf("above-turbo pin gave %v", op.Freq)
	}
}

func TestLinearityOfPowerCurves(t *testing.T) {
	// The module power model must be affine in f (the paper's validated
	// assumption, Figure 5).
	a := testArch()
	p := testProfile()
	m := New(13, a, 7)
	var fx, cpu, dram []float64
	for _, f := range a.PStates() {
		fx = append(fx, f.GHz())
		cpu = append(cpu, float64(m.Curve(p).CPUPower(f)))
		dram = append(dram, float64(m.DramPower(p, f)))
	}
	for name, ys := range map[string][]float64{"cpu": cpu, "dram": dram} {
		fit, err := stats.FitLinear(fx, ys)
		if err != nil {
			t.Fatal(err)
		}
		if fit.R2 < 0.9999 {
			t.Errorf("%s power not affine in f: R²=%v", name, fit.R2)
		}
	}
}

func TestProfileScaling(t *testing.T) {
	p := testProfile()
	q := p.ScaleCPU(0.5)
	if q.DynPower != 30 || q.StaticPower != 12.5 {
		t.Fatalf("ScaleCPU wrong: %+v", q)
	}
	if q.DramBase != p.DramBase {
		t.Fatal("ScaleCPU touched DRAM")
	}
	r := p.ScaleDRAM(2)
	if r.DramBase != 12 || r.DramDyn != 12 {
		t.Fatalf("ScaleDRAM wrong: %+v", r)
	}
}

func TestResidualStability(t *testing.T) {
	// The same module must draw the same power for the same workload on
	// every query — the paper's < 0.5% run-to-run noise observation is
	// only possible if the residual is a per-(module, workload) constant.
	a := testArch()
	p := testProfile()
	m := New(21, a, 7)
	first := m.Curve(p).CPUPower(a.FNom)
	for i := 0; i < 10; i++ {
		if got := m.Curve(p).CPUPower(a.FNom); got != first {
			t.Fatalf("power changed between queries: %v vs %v", got, first)
		}
	}
}
