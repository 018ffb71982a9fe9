package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"varpower/internal/units"
	"varpower/internal/workload"
)

// update rewrites testdata/runners.golden instead of comparing against it:
//
//	go test ./internal/core -run TestRunnersGolden -update
var update = flag.Bool("update", false, "rewrite the testdata golden files")

// full formats a number at full precision, so a one-ulp change shows.
func full(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// TestRunnersGolden pins the dynamic, phased and multi-PVT runners under
// PC and FS enforcement: every epoch's or phase's α, frequency, elapsed
// time and power (and the dynamic runner's model error), and the
// multi-PVT run's chosen microbenchmark, α, elapsed time and average power.
func TestRunnersGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, fs := range []bool{false, true} {
		mode := schemeFor(fs)

		fw, ids := testFramework(t, 64)
		dyn, err := fw.RunDynamic(workload.BT(), ids, units.Watts(64*70), 4, fs)
		if err != nil {
			t.Fatalf("dynamic %v: %v", mode, err)
		}
		for _, e := range dyn.Epochs {
			fmt.Fprintf(&buf, "dynamic %v epoch=%d alpha=%s freq=%s elapsed=%s power=%s model_error=%s\n", mode,
				e.Epoch, full(e.Alpha), full(float64(e.Freq)), full(float64(e.Elapsed)), full(float64(e.MeasuredPower)), full(e.ModelError))
		}

		for _, planner := range []string{"static", "adaptive"} {
			fw, ids := testFramework(t, 64)
			run := fw.RunPhasedStatic
			if planner == "adaptive" {
				run = fw.RunPhasedAdaptive
			}
			res, err := run(twoPhases(), ids, units.Watts(64*85), fs)
			if err != nil {
				t.Fatalf("phased %s %v: %v", planner, mode, err)
			}
			for _, p := range res.Phases {
				fmt.Fprintf(&buf, "phased-%s %v phase=%d bench=%s alpha=%s freq=%s elapsed=%s power=%s\n", planner, mode,
					p.Phase, p.Bench, full(p.Alpha), full(float64(p.Freq)), full(float64(p.Elapsed)), full(float64(p.Power)))
			}
		}

		fw, ids = testFramework(t, 48)
		lib, err := GeneratePVTLibrary(fw.Sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		run, sel, err := fw.RunMultiPVT(lib, workload.BT(), ids, units.Watts(48*70), fs)
		if err != nil {
			t.Fatalf("multi-PVT %v: %v", mode, err)
		}
		fmt.Fprintf(&buf, "multipvt %v chosen=%s alpha=%s elapsed=%s power=%s\n", mode,
			sel.Chosen.Microbenchmark, full(run.Alloc.Alpha), full(float64(run.Elapsed())), full(float64(run.Result.AvgTotalPower)))
	}

	path := filepath.Join("testdata", "runners.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("%s: runner output diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with -update.",
			path, buf.Bytes(), want)
	}
}
