package core

import (
	"errors"
	"strings"
	"testing"

	"varpower/internal/units"
	"varpower/internal/workload"
)

func TestRunDynamicConverges(t *testing.T) {
	fw, ids := testFramework(t, 64)
	bench := workload.BT() // the worst-calibrated benchmark
	budget := units.Watts(64 * 70)

	dyn, err := fw.RunDynamic(bench, ids, budget, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Epochs) != 4 {
		t.Fatalf("epochs %d", len(dyn.Epochs))
	}
	// Model error must collapse after the first feedback round.
	first := dyn.Epochs[0].ModelError
	second := dyn.Epochs[1].ModelError
	if first <= 0 {
		t.Fatalf("initial model error %v, want > 0 (BT is miscalibrated)", first)
	}
	if second > first/4 {
		t.Fatalf("feedback did not converge: %v -> %v", first, second)
	}
	// Power must be respected in every epoch.
	for _, e := range dyn.Epochs {
		if e.MeasuredPower > budget {
			t.Fatalf("epoch %d exceeded the budget: %v > %v", e.Epoch, e.MeasuredPower, budget)
		}
	}
	// Iterations must be conserved across epochs: total elapsed is the
	// whole application.
	if dyn.Elapsed <= 0 {
		t.Fatal("no elapsed time accumulated")
	}
	if dyn.FinalPMT == nil || len(dyn.FinalPMT.Entries) != 64 {
		t.Fatal("final PMT missing")
	}
}

func TestRunDynamicBeatsStaticPC(t *testing.T) {
	// With feedback, the dynamic run approaches the oracle's operating
	// point and must not be slower than static VaPc by more than noise.
	fw, ids := testFramework(t, 64)
	bench := workload.BT()
	budget := units.Watts(64 * 70)

	static, err := fw.Run(bench, ids, budget, VaPc)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := fw.RunDynamic(bench, ids, budget, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if float64(dyn.Elapsed) > float64(static.Elapsed())*1.05 {
		t.Fatalf("dynamic run (%v) notably slower than static VaPc (%v)",
			dyn.Elapsed, static.Elapsed())
	}
	// And the corrected alpha must move toward the oracle's.
	oracle, err := fw.Run(bench, ids, budget, VaPcOr)
	if err != nil {
		t.Fatal(err)
	}
	firstGap := gap(dyn.Epochs[0].Alpha, oracle.Alloc.Alpha)
	lastGap := gap(dyn.Epochs[len(dyn.Epochs)-1].Alpha, oracle.Alloc.Alpha)
	if lastGap > firstGap && lastGap > 0.02 {
		t.Fatalf("alpha diverged from oracle: gap %v -> %v", firstGap, lastGap)
	}
}

func gap(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestRunDynamicFS(t *testing.T) {
	fw, ids := testFramework(t, 32)
	dyn, err := fw.RunDynamic(workload.MHD(), ids, units.Watts(32*70), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Epochs) != 2 {
		t.Fatalf("epochs %d", len(dyn.Epochs))
	}
}

func TestRunDynamicValidation(t *testing.T) {
	fw, ids := testFramework(t, 8)
	if _, err := fw.RunDynamic(workload.MHD(), ids, 8*70, 0, false); err == nil {
		t.Error("zero epochs accepted")
	}
	short := *workload.MHD()
	short.Iterations = 2
	if _, err := fw.RunDynamic(&short, ids, 8*70, 5, false); err == nil {
		t.Error("more epochs than iterations accepted")
	}

	// Every extension runner reports an infeasible budget as
	// ErrBudgetInfeasible under the scheme it enforces through.
	const budget = 8 * 20
	for _, r := range []struct {
		name   string
		prefix string
		run    func(fs bool) error
	}{
		{"dynamic", "", func(fs bool) error {
			_, err := fw.RunDynamic(workload.DGEMM(), ids, budget, 2, fs)
			return err
		}},
		{"phased-static", "core: phase 0 (*DGEMM): ", func(fs bool) error {
			_, err := fw.RunPhasedStatic(twoPhases(), ids, budget, fs)
			return err
		}},
		{"phased-adaptive", "core: phase 0 (*DGEMM): ", func(fs bool) error {
			_, err := fw.RunPhasedAdaptive(twoPhases(), ids, budget, fs)
			return err
		}},
	} {
		for _, mode := range []struct {
			fs   bool
			want Scheme
		}{{false, VaPc}, {true, VaFs}} {
			err := r.run(mode.fs)
			var inf ErrBudgetInfeasible
			if !errors.As(err, &inf) {
				t.Errorf("%s fs=%v: want ErrBudgetInfeasible, got %v", r.name, mode.fs, err)
				continue
			}
			if inf.Scheme != mode.want || inf.Budget != budget {
				t.Errorf("%s fs=%v: infeasible under %v at %v, want %v at %v", r.name, mode.fs, inf.Scheme, inf.Budget, mode.want, units.Watts(budget))
			}
			if !strings.HasPrefix(err.Error(), r.prefix+"core: budget ") {
				t.Errorf("%s fs=%v: error %q, want prefix %q", r.name, mode.fs, err, r.prefix)
			}
		}
	}
}
