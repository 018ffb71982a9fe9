package cluster

import (
	"math"
	"strings"
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/hw/rapl"
	"varpower/internal/stats"
)

func TestPresetsValidate(t *testing.T) {
	for _, spec := range Presets() {
		if err := spec.Arch.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if len(Presets()) != 4 {
		t.Fatalf("expected the paper's 4 systems, have %d", len(Presets()))
	}
}

func TestTable2Parameters(t *testing.T) {
	// Spot-check Table 2 against the paper.
	ha := HA8K()
	if ha.TotalModules() != 1920 {
		t.Errorf("HA8K has %d modules, want 1920 (960 nodes × 2)", ha.TotalModules())
	}
	if ha.Arch.FNom.GHz() != 2.7 || ha.Arch.TDP != 130 {
		t.Error("HA8K E5-2697v2 parameters wrong")
	}
	cab := Cab()
	if cab.Nodes != 1296 || cab.Arch.FNom.GHz() != 2.6 || cab.Arch.TDP != 115 {
		t.Error("Cab E5-2670 parameters wrong")
	}
	v := Vulcan()
	if v.Nodes != 24576 || v.Arch.FNom.GHz() != 1.6 || v.ModulesPerBoard != 32 {
		t.Error("Vulcan parameters wrong")
	}
	if v.Arch.FMin != v.Arch.FTurbo {
		t.Error("BG/Q A2 runs at a fixed frequency")
	}
	te := Teller()
	if te.Nodes != 104 || te.Arch.FNom.GHz() != 3.8 || te.Arch.TDP != 100 {
		t.Error("Teller A10-5800K parameters wrong")
	}
	if te.Arch.Variation.TurboSpread == 0 {
		t.Error("Teller must have turbo spread (Turbo Core)")
	}
}

func TestMeasurementCapping(t *testing.T) {
	if !MeasureRAPL.SupportsCapping() {
		t.Error("RAPL must support capping")
	}
	if MeasurePI.SupportsCapping() || MeasureEMON.SupportsCapping() {
		t.Error("PI and EMON are measurement-only (Table 1)")
	}
}

func TestNewBounds(t *testing.T) {
	if _, err := New(HA8K(), 2000, 1); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := New(HA8K(), -1, 1); err == nil {
		t.Error("negative count accepted")
	}
	sys, err := New(Teller(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumModules() != 104 {
		t.Errorf("count 0 should instantiate the full machine, got %d", sys.NumModules())
	}
}

func TestDeterministicInstantiation(t *testing.T) {
	a := MustNew(HA8K(), 32, 5)
	b := MustNew(HA8K(), 32, 5)
	for i := 0; i < 32; i++ {
		if a.Module(i).Factors() != b.Module(i).Factors() {
			t.Fatalf("module %d factors differ across instantiations", i)
		}
	}
	c := MustNew(HA8K(), 32, 6)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Module(i).Factors() == c.Module(i).Factors() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d modules identical under a different seed", same)
	}
}

func TestAllocateFirst(t *testing.T) {
	sys := MustNew(HA8K(), 16, 1)
	ids, err := sys.AllocateFirst(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("AllocateFirst ids %v", ids)
		}
	}
	if _, err := sys.AllocateFirst(17); err == nil {
		t.Error("over-allocation accepted")
	}
	if _, err := sys.AllocateFirst(0); err == nil {
		t.Error("zero allocation accepted")
	}
}

func TestBoardFactor(t *testing.T) {
	sys := MustNew(Vulcan(), 64, 1)
	if sys.BoardFactor(0) == 1 && sys.BoardFactor(1) == 1 && sys.BoardFactor(2) == 1 {
		t.Error("Vulcan board factors all exactly 1")
	}
	if sys.BoardFactor(0) != sys.BoardFactor(0) {
		t.Error("board factor not deterministic")
	}
	ha := MustNew(HA8K(), 4, 1)
	if ha.BoardFactor(0) != 1 {
		t.Error("per-socket systems must have unit board factor")
	}
}

func TestSetControlModel(t *testing.T) {
	sys := MustNew(HA8K(), 4, 1)
	prof := testWorkloadProfile()
	ctl := sys.RAPL(0)
	if err := ctl.SetPkgLimit(70, 0.001, nil); err != nil {
		t.Fatal(err)
	}
	jittered, _ := ctl.OperatingPoint(prof)
	sys.SetControlModel(rapl.PerfectControl)
	ctl = sys.RAPL(0)
	if err := ctl.SetPkgLimit(70, 0.001, nil); err != nil {
		t.Fatal(err)
	}
	perfect, _ := ctl.OperatingPoint(prof)
	if perfect.Freq <= jittered.Freq {
		t.Fatalf("perfect control (%v) should deliver more frequency than jittered (%v)",
			perfect.Freq, jittered.Freq)
	}
}

// testWorkloadProfile is a generic compute profile for control-model tests.
func testWorkloadProfile() module.PowerProfile {
	return module.PowerProfile{
		Workload: "ctltest", DynPower: 60, StaticPower: 25,
		DramBase: 6, DramDyn: 6, ResidualSigma: 0.02,
	}
}

func TestHA8KPopulationStatistics(t *testing.T) {
	// The generated population must match the paper's measured spreads.
	sys := MustNew(HA8K(), 1920, 0x5c15)
	var leak, dram []float64
	for i := 0; i < 1920; i++ {
		f := sys.Module(i).Factors()
		leak = append(leak, f.Leak)
		dram = append(dram, f.Dram)
	}
	if v := stats.Variation(dram); v < 2.0 || v > 3.6 {
		t.Errorf("DRAM factor spread %v, want ≈ 2.8 (paper's DRAM Vp)", v)
	}
	lm := stats.Mean(leak)
	if math.Abs(lm-1) > 0.02 {
		t.Errorf("leak factor mean %v, want ≈ 1", lm)
	}
}

func TestSpecByName(t *testing.T) {
	for _, c := range []struct {
		in, want string
	}{
		{"HA8K", "HA8K"},
		{"ha8k", "HA8K"},
		{"cab", "Cab"},
		{"teller", "Teller"},
		{"vulcan", "BG/Q Vulcan"},
		{"BG/Q Vulcan", "BG/Q Vulcan"},
		{" ha8k ", "HA8K"},
		{"summit", "Summit-lite"},
		{"Summit-lite", "Summit-lite"},
		{"hybrid", "HA8K-hybrid"},
		{"HA8K-HYBRID", "HA8K-hybrid"},
	} {
		s, err := SpecByName(c.in)
		if err != nil {
			t.Fatalf("SpecByName(%q): %v", c.in, err)
		}
		if s.Name != c.want {
			t.Fatalf("SpecByName(%q) = %q, want %q", c.in, s.Name, c.want)
		}
	}
	_, err := SpecByName("no-such-machine")
	if err == nil {
		t.Fatal("unknown system must error")
	}
	// The error enumerates the full preset vocabulary so operators can
	// discover the hybrid presets from the CLI/API error alone.
	for _, want := range []string{"HA8K", "HA8K-hybrid", "Summit-lite", `alias "summit"`, `alias "vulcan"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("SpecByName error %q does not mention %q", err, want)
		}
	}
}
