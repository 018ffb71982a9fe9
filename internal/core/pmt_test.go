package core

import (
	"math"
	"testing"

	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func TestCalibrateSelfPrediction(t *testing.T) {
	// Calibrating the PVT microbenchmark against its own PVT must
	// reproduce the oracle almost exactly: the latent factors cancel and
	// only the (tiny, σ=1%) *STREAM residual and run noise remain.
	sys := pvtSystem(t, 48)
	pvt, err := GeneratePVTWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 48)
	for i := range ids {
		ids[i] = i
	}
	bench := workload.StarSTREAM()
	pair, err := RunTestPair(sys, bench, 0)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Calibrate(pvt, pair, bench, ids)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OraclePMTWorkers(sys, bench, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	var p, a []float64
	for i := range pred.Entries {
		p = append(p, float64(pred.Entries[i].ModuleMax()))
		a = append(a, float64(oracle.Entries[i].ModuleMax()))
	}
	if e := stats.MeanAbsPctError(p, a); e > 0.01 {
		t.Fatalf("self-calibration error %v, want < 1%%", e)
	}
}

func TestCalibrateCrossWorkloadBounded(t *testing.T) {
	// Calibration of a different workload carries mix/residual error but
	// stays bounded (the paper: < 5% typical, ~10% for NPB-BT).
	sys := pvtSystem(t, 96)
	pvt, err := GeneratePVTWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 96)
	for i := range ids {
		ids[i] = i
	}
	for _, bench := range []*workload.Benchmark{workload.DGEMM(), workload.MHD(), workload.BT()} {
		pair, err := RunTestPair(sys, bench, 0)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Calibrate(pvt, pair, bench, ids)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := OraclePMTWorkers(sys, bench, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		var p, a []float64
		for i := range pred.Entries {
			p = append(p, float64(pred.Entries[i].ModuleMax()))
			a = append(a, float64(oracle.Entries[i].ModuleMax()))
		}
		if e := stats.MeanAbsPctError(p, a); e > 0.15 {
			t.Errorf("%s calibration error %v, want < 15%%", bench.Name, e)
		}
	}
}

func TestCalibrateUnknownModule(t *testing.T) {
	sys := pvtSystem(t, 8)
	pvt, _ := GeneratePVTWorkers(sys, nil, 0)
	pair := TestPair{ModuleID: 99}
	if _, err := Calibrate(pvt, pair, workload.DGEMM(), []int{0}); err == nil {
		t.Error("unknown test module accepted")
	}
	pair = TestPair{ModuleID: 0}
	if _, err := Calibrate(pvt, pair, workload.DGEMM(), []int{0, 55}); err == nil {
		t.Error("unknown target module accepted")
	}
}

func TestOraclePMTMatchesModuleModel(t *testing.T) {
	sys := pvtSystem(t, 8)
	bench := workload.MHD()
	prof := bench.ProfileFor(sys.Spec.Arch)
	pmt, err := OraclePMTWorkers(sys, bench, []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pmt.Entries {
		want := sys.Module(e.ModuleID).Curve(prof).CPUPower(sys.Spec.Arch.FNom)
		if math.Abs(float64(e.CPUMax-want))/float64(want) > 0.02 {
			t.Fatalf("oracle CPUMax %v vs model %v", e.CPUMax, want)
		}
		if e.CPUMin >= e.CPUMax {
			t.Fatal("oracle min not below max")
		}
	}
}

func TestNaivePMT(t *testing.T) {
	sys := pvtSystem(t, 8)
	pmt := NaivePMT(sys, []int{3, 4})
	if len(pmt.Entries) != 2 {
		t.Fatal("entry count")
	}
	for _, e := range pmt.Entries {
		if e.CPUMax != sys.Spec.Arch.TDP || e.DramMax != sys.Spec.Arch.DramTDP {
			t.Fatalf("naive max must be TDP-based: %+v", e)
		}
		if e.CPUMin != 40 || e.DramMin != 10 {
			t.Fatalf("naive HA8K thresholds wrong: %+v", e)
		}
	}
	if pmt.Entries[0].ModuleID != 3 || pmt.Entries[1].ModuleID != 4 {
		t.Fatal("module IDs not preserved")
	}
}

func TestUniformPMT(t *testing.T) {
	pmt := &PMT{Workload: "w", Entries: []PMTEntry{
		{ModuleID: 0, CPUMax: 100, DramMax: 10, CPUMin: 50, DramMin: 8},
		{ModuleID: 1, CPUMax: 120, DramMax: 14, CPUMin: 54, DramMin: 12},
	}}
	u := pmt.Uniform()
	if u.Entries[0].CPUMax != 110 || u.Entries[1].CPUMax != 110 {
		t.Fatalf("uniform CPUMax %v/%v", u.Entries[0].CPUMax, u.Entries[1].CPUMax)
	}
	if u.Entries[0].ModuleID != 0 || u.Entries[1].ModuleID != 1 {
		t.Fatal("uniform PMT lost module identity")
	}
	// The original must be untouched.
	if pmt.Entries[0].CPUMax != 100 {
		t.Fatal("Uniform mutated its receiver")
	}
	avg := pmt.Averages()
	if avg.DramMin != 10 {
		t.Fatalf("averages wrong: %+v", avg)
	}
}

func TestPMTEntryAccessors(t *testing.T) {
	e := PMTEntry{CPUMax: 100, DramMax: 12, CPUMin: 50, DramMin: units.Watts(10)}
	if e.ModuleMax() != 112 || e.ModuleMin() != 60 {
		t.Fatal("ModuleMax/Min accessors wrong")
	}
}
