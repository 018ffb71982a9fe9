package varpower_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/experiments"
	"varpower/internal/measure"
	"varpower/internal/sched"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Integration tests exercise the whole stack — cluster, MSR/RAPL, DES,
// budgeting, experiments — through the public entry points, at reduced
// scale.

func TestEndToEndDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		sys := cluster.MustNew(cluster.HA8K(), 96, 0xABCD)
		ids, err := sys.AllocateFirst(96)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := core.NewFramework(sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fw.Run(workload.BT(), ids, units.Watts(96*70), core.VaPc)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Elapsed()), float64(r.Result.AvgTotalPower)
	}
	e1, p1 := run()
	e2, p2 := run()
	if e1 != e2 || p1 != p2 {
		t.Fatalf("two identical pipelines diverged: (%v, %v) vs (%v, %v)", e1, p1, e2, p2)
	}
}

func TestSeedChangesTheMachine(t *testing.T) {
	a := cluster.MustNew(cluster.HA8K(), 8, 1).Module(0).Factors()
	b := cluster.MustNew(cluster.HA8K(), 8, 2).Module(0).Factors()
	if a == b {
		t.Fatal("different seeds drew the same machine")
	}
}

func TestEnergyBooksBalance(t *testing.T) {
	// AvgTotalPower must be exactly TotalEnergy / Elapsed, and energy must
	// equal the sum of per-rank MSR counter readings.
	sys := cluster.MustNew(cluster.HA8K(), 32, 7)
	ids, _ := sys.AllocateFirst(32)
	res, err := measure.Run(sys, measure.Config{Bench: workload.MHD(), Modules: ids, Mode: measure.ModeUncapped})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Ranks {
		sum += float64(r.PkgEnergy) + float64(r.DramEnergy)
	}
	if math.Abs(sum-float64(res.TotalEnergy))/sum > 1e-9 {
		t.Fatalf("per-rank energies (%v) disagree with total (%v)", sum, res.TotalEnergy)
	}
	want := sum / float64(res.Elapsed)
	if math.Abs(want-float64(res.AvgTotalPower))/want > 1e-9 {
		t.Fatalf("avg power %v, want %v", res.AvgTotalPower, want)
	}
}

func TestSchemeHierarchy(t *testing.T) {
	// Across a couple of representative scenarios, the paper's ordering
	// holds: Naive ≤ Pc ≤ VaPc ≤ VaFs (by speedup).
	sys := cluster.MustNew(cluster.HA8K(), 128, 0x5c15)
	ids, _ := sys.AllocateFirst(128)
	fw, err := core.NewFramework(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bench *workload.Benchmark
		cm    float64
	}{
		{workload.MHD(), 70},
		{workload.BT(), 60},
	} {
		budget := units.Watts(tc.cm * 128)
		var prev float64 = math.Inf(1)
		for _, scheme := range []core.Scheme{core.Naive, core.Pc, core.VaPc, core.VaFs} {
			run, err := fw.Run(tc.bench, ids, budget, scheme)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.bench.Name, scheme, err)
			}
			el := float64(run.Elapsed())
			// Allow 8% slack: the hierarchy is statistical, not per-seed
			// strict.
			if el > prev*1.08 {
				t.Errorf("%s at Cm=%v: %v elapsed %v breaks the hierarchy (prev %v)",
					tc.bench.Name, tc.cm, scheme, el, prev)
			}
			if el < prev {
				prev = el
			}
		}
	}
}

func TestPVTFileWorkflow(t *testing.T) {
	// The production workflow: generate a PVT at install time, store it,
	// load it in a job prologue, budget with it.
	sys := cluster.MustNew(cluster.HA8K(), 24, 0x5c15)
	pvt, err := core.GeneratePVTWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pvt.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pvt.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	loaded, err := core.LoadPVT(g)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFrameworkWithPVT(sys, loaded)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := sys.AllocateFirst(24)
	run, err := fw.Run(workload.MHD(), ids, units.Watts(24*80), core.VaFs)
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.Elapsed <= 0 {
		t.Fatal("no run result")
	}
}

func TestSchedulerOnTopOfFramework(t *testing.T) {
	sys := cluster.MustNew(cluster.HA8K(), 96, 0x5c15)
	s, err := sched.NewOnSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]sched.Job{
		{Name: "a", Bench: workload.MHD(), Modules: 48},
		{Name: "b", Bench: workload.DGEMM(), Modules: 48},
	}, sched.Config{
		SystemPower: units.Watts(96 * 75),
		Policy:      sched.SplitGlobalAlpha,
		Scheme:      core.VaFs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPower > units.Watts(96*75)*1.02 {
		t.Fatalf("scheduled system power %v above constraint", res.TotalPower)
	}
}

func TestReducedScalePreservesBoundaries(t *testing.T) {
	// Table 4's marks must be identical at 1/10 scale — feasibility is a
	// per-module property. This pins the scale-invariance the test suite
	// and benchmarks rely on.
	small, err := experiments.Table4(experiments.Options{HA8KModules: 192})
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := experiments.Table4(experiments.Options{HA8KModules: 96})
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Rows {
		for j := range small.Rows[i].Marks {
			if small.Rows[i].Marks[j] != smaller.Rows[i].Marks[j] {
				t.Errorf("%s at Cs=%v: mark differs across scales (%v vs %v)",
					small.Rows[i].Bench, small.CsKW[j],
					small.Rows[i].Marks[j], smaller.Rows[i].Marks[j])
			}
		}
	}
}
