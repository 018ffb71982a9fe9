package core

import (
	"testing"

	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func TestGeneratePVTLibrary(t *testing.T) {
	sys := pvtSystem(t, 32)
	lib, err := GeneratePVTLibrary(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.PVTs) != len(DefaultProbes()) {
		t.Fatalf("library has %d PVTs", len(lib.PVTs))
	}
	names := map[string]bool{}
	for _, pvt := range lib.PVTs {
		names[pvt.Microbenchmark] = true
		if len(pvt.Entries) != 32 {
			t.Fatalf("%s PVT has %d entries", pvt.Microbenchmark, len(pvt.Entries))
		}
	}
	if !names["*STREAM"] || !names["*DGEMM"] || !names["NPB-EP"] {
		t.Fatalf("default probes missing: %v", names)
	}
}

func TestSelectAndCalibrate(t *testing.T) {
	sys := pvtSystem(t, 64)
	lib, err := GeneratePVTLibrary(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	// For *STREAM itself the *STREAM PVT must win (self-calibration is
	// exact up to residuals).
	_, sel, err := lib.SelectAndCalibrate(sys, workload.StarSTREAM(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Chosen.Microbenchmark != "*STREAM" {
		t.Fatalf("selected %s for *STREAM, want *STREAM (errors %v)",
			sel.Chosen.Microbenchmark, sel.Errors)
	}
	if len(sel.Errors) != 3 {
		t.Fatalf("errors recorded for %d candidates", len(sel.Errors))
	}
	if sel.TestModule != 0 || sel.HoldoutModule != 1 {
		t.Fatalf("test/holdout modules %d/%d", sel.TestModule, sel.HoldoutModule)
	}

	// Errors must be non-negative and the chosen PVT must have the
	// minimal one.
	best := sel.Errors[sel.Chosen.Microbenchmark]
	for name, e := range sel.Errors {
		if e < 0 {
			t.Fatalf("negative error for %s", name)
		}
		if e < best {
			t.Fatalf("selection not minimal: %s has %v < chosen %v", name, e, best)
		}
	}
}

func TestMultiPVTImprovesOrMatchesSinglePVT(t *testing.T) {
	// Across the evaluated benchmarks, library selection must on average
	// not be worse than the fixed *STREAM PVT (it can always pick it).
	sys := pvtSystem(t, 96)
	lib, err := GeneratePVTLibrary(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamPVT *PVT
	for _, p := range lib.PVTs {
		if p.Microbenchmark == "*STREAM" {
			streamPVT = p
		}
	}
	ids := make([]int, 96)
	for i := range ids {
		ids[i] = i
	}
	var singleErrs, multiErrs []float64
	for _, bench := range workload.Evaluated() {
		oracle, err := OraclePMTWorkers(sys, bench, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := RunTestPair(sys, bench, 0)
		if err != nil {
			t.Fatal(err)
		}
		single, err := Calibrate(streamPVT, pair, bench, ids)
		if err != nil {
			t.Fatal(err)
		}
		multi, _, err := lib.SelectAndCalibrate(sys, bench, ids)
		if err != nil {
			t.Fatal(err)
		}
		singleErrs = append(singleErrs, pmtError(single, oracle))
		multiErrs = append(multiErrs, pmtError(multi, oracle))
	}
	if stats.Mean(multiErrs) > stats.Mean(singleErrs)*1.1 {
		t.Fatalf("multi-PVT mean error %v worse than single-PVT %v",
			stats.Mean(multiErrs), stats.Mean(singleErrs))
	}
}

func pmtError(pred, oracle *PMT) float64 {
	var p, a []float64
	for i := range pred.Entries {
		p = append(p, float64(pred.Entries[i].ModuleMax()))
		a = append(a, float64(oracle.Entries[i].ModuleMax()))
	}
	return stats.MeanAbsPctError(p, a)
}

func TestSelectAndCalibrateErrors(t *testing.T) {
	sys := pvtSystem(t, 8)
	lib, err := GeneratePVTLibrary(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.SelectAndCalibrate(sys, workload.MHD(), []int{0}); err == nil {
		t.Error("single-module allocation accepted (needs a holdout)")
	}
	empty := &PVTLibrary{}
	if _, _, err := empty.SelectAndCalibrate(sys, workload.MHD(), []int{0, 1}); err == nil {
		t.Error("empty library accepted")
	}
}

func TestRunMultiPVT(t *testing.T) {
	fw, ids := testFramework(t, 48)
	lib, err := GeneratePVTLibrary(fw.Sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := units.Watts(48 * 70)
	run, sel, err := fw.RunMultiPVT(lib, workload.BT(), ids, budget, true)
	if err != nil {
		t.Fatal(err)
	}
	if run.Scheme != VaFs {
		t.Fatalf("scheme %v", run.Scheme)
	}
	if sel.Chosen == nil {
		t.Fatal("no PVT chosen")
	}
	if run.Result.AvgTotalPower > budget*1.05 {
		t.Fatalf("multi-PVT run power %v far above budget %v", run.Result.AvgTotalPower, budget)
	}
}
