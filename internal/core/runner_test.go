package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/flight"
	"varpower/internal/measure"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func testFramework(t *testing.T, n int) (*Framework, []int) {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFramework(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fw, ids
}

func TestSchemesMetadata(t *testing.T) {
	if len(AllSchemes()) != 6 {
		t.Fatal("the paper evaluates six schemes")
	}
	if Naive.VariationAware() || Pc.VariationAware() {
		t.Error("Naive/Pc must be variation-unaware")
	}
	for _, s := range []Scheme{VaPc, VaPcOr, VaFs, VaFsOr} {
		if !s.VariationAware() {
			t.Errorf("%v must be variation-aware", s)
		}
	}
	if !VaFs.UsesFS() || !VaFsOr.UsesFS() || VaPc.UsesFS() || Naive.UsesFS() {
		t.Error("FS flags wrong")
	}
	if !VaPcOr.Oracle() || !VaFsOr.Oracle() || VaPc.Oracle() {
		t.Error("oracle flags wrong")
	}
	if Naive.String() != "Naive" || VaFsOr.String() != "VaFsOr" {
		t.Error("scheme names wrong")
	}
}

func TestInstrument(t *testing.T) {
	inst, err := Instrument(workload.DGEMM())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.Directives) != 2 ||
		inst.Directives[0].Anchor != "MPI_Init" ||
		inst.Directives[1].Anchor != "MPI_Finalize" {
		t.Fatalf("directives %+v", inst.Directives)
	}
	if _, err := Instrument(nil); err == nil {
		t.Error("nil benchmark instrumented")
	}
	bad := *workload.DGEMM()
	bad.Iterations = 0
	if _, err := Instrument(&bad); err == nil {
		t.Error("invalid benchmark instrumented")
	}
}

func TestBuildPMTPerScheme(t *testing.T) {
	fw, ids := testFramework(t, 32)
	bench := workload.MHD()

	naive, err := fw.BuildPMT(bench, ids, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Entries[0].CPUMax != fw.Sys.Spec.Arch.TDP {
		t.Error("Naive PMT not TDP-based")
	}

	pc, err := fw.BuildPMT(bench, ids, Pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pc.Entries[1:] {
		if e.CPUMax != pc.Entries[0].CPUMax {
			t.Fatal("Pc PMT must be uniform")
		}
	}

	vapc, err := fw.BuildPMT(bench, ids, VaPc)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, e := range vapc.Entries[1:] {
		if e.CPUMax != vapc.Entries[0].CPUMax {
			varied = true
		}
	}
	if !varied {
		t.Fatal("VaPc PMT shows no per-module variation")
	}

	oracle, err := fw.BuildPMT(bench, ids, VaPcOr)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle and calibrated tables agree in the aggregate but differ per
	// module (calibration error).
	oa, va := oracle.Averages(), vapc.Averages()
	if math.Abs(float64(oa.CPUMax-va.CPUMax))/float64(oa.CPUMax) > 0.1 {
		t.Errorf("calibrated average %v far from oracle %v", va.CPUMax, oa.CPUMax)
	}

	if _, err := fw.BuildPMT(bench, nil, VaPc); err == nil {
		t.Error("empty allocation accepted")
	}
}

// TestRunIsModelThenRunModel: Run is its two steps composed. On one replica,
// BuildModel followed by RunModel must measure exactly what Run does — the
// final run's energies included, since the test runs precede it on the same
// counters — and record a byte-identical flight trace.
func TestRunIsModelThenRunModel(t *testing.T) {
	fw, ids := testFramework(t, 16)
	bench := workload.MHD()
	budget := units.Watts(16 * 75)
	traced := func(run func(*Framework) (*SchemeRun, error)) (*SchemeRun, []byte) {
		t.Helper()
		r := fw.Clone()
		r.Recorder = flight.New(flight.Config{Hz: 1})
		res, err := run(r)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := flight.WriteTrace(&buf, r.Recorder.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	for _, scheme := range AllSchemes() {
		want, wantTrace := traced(func(r *Framework) (*SchemeRun, error) {
			return r.Run(bench, ids, budget, scheme)
		})
		got, gotTrace := traced(func(r *Framework) (*SchemeRun, error) {
			m, err := r.BuildModel(bench, ids, scheme)
			if err != nil {
				return nil, err
			}
			return r.RunModel(m, budget)
		})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: BuildModel+RunModel differs from Run", scheme)
		}
		if !bytes.Equal(wantTrace, gotTrace) {
			t.Errorf("%v: BuildModel+RunModel recorded a different flight trace", scheme)
		}
	}
}

// TestBuildModelsSharesMeasurement: the schemes of one ModelGroups group get
// from one shared measurement exactly the models each would get from its
// own measurement on a fresh replica.
func TestBuildModelsSharesMeasurement(t *testing.T) {
	fw, ids := testFramework(t, 32)
	bench := workload.BT()
	groups := ModelGroups(AllSchemes())
	want := [][]Scheme{{Naive}, {Pc, VaPcOr, VaFsOr}, {VaPc, VaFs}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("ModelGroups = %v, want %v", groups, want)
	}
	for _, group := range groups {
		shared, err := fw.Clone().BuildModels(bench, ids, group)
		if err != nil {
			t.Fatal(err)
		}
		for i, scheme := range group {
			own, err := fw.Clone().BuildModel(bench, ids, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(shared[i], own) {
				t.Errorf("%v: shared model differs from its own measurement's", scheme)
			}
			if (scheme == VaFs) != (own.Margin > 0) {
				t.Errorf("%v: margin %v", scheme, own.Margin)
			}
		}
	}
	if _, err := fw.BuildModels(bench, ids, []Scheme{VaPc, VaPcOr}); err == nil {
		t.Error("schemes on different measurements shared one")
	}
	if _, err := fw.BuildModels(bench, ids, nil); err == nil {
		t.Error("no schemes accepted")
	}
	if _, err := fw.BuildModel(bench, ids, Scheme(42)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestRunModelReusesProgram: the models of one BuildModels call share one
// DES program and one hold, made on their first run, and every run still
// measures exactly what Execute measures for its allocation on a fresh
// replica. On HA8K at 32 modules, healthy and under
// testdata/chaos-plan.json, every scheme runs at three budgets; a model's
// first runs are on a framework with another seed, which must make its own
// program and hold and leave the shared ones to the model's own framework,
// and so must a run at that seed after the shared ones exist. A hold of
// the wrong length is refused. A fresh model run from four goroutines at
// once must equal its serial runs.
func TestRunModelReusesProgram(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "chaos-plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := faults.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	bench := workload.BT() // imbalanced: its program depends on the seed
	budgets := []units.Watts{n * 70, n * 85, n * 110}
	var ran, failed int
	for _, sysCase := range []struct {
		label string
		plan  *faults.Plan
	}{{"healthy", nil}, {"chaos", chaos}} {
		framework := func(seed uint64) *Framework {
			sys := cluster.MustNew(cluster.HA8K(), n, seed)
			if sysCase.plan != nil {
				sys.InstallFaults(faults.MustInjector(sysCase.plan))
			}
			fw, err := NewFrameworkWorkers(sys, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			return fw
		}
		fw, other := framework(0x5c15), framework(0x5c16)
		ids, err := fw.Sys.AllocateFirst(n)
		if err != nil {
			t.Fatal(err)
		}
		// run runs m at budget on a fresh replica of on and checks the
		// result against Execute of its allocation on another. A run that
		// fails (under the chaos plan, a spiking counter leaves the oracle
		// models a zero cap) must fail as a run of the model without its
		// program does, and returns nil.
		run := func(on *Framework, m *Model, budget units.Watts) *SchemeRun {
			t.Helper()
			r, err := on.Clone().RunModel(m, budget)
			if err != nil {
				bare := *m
				bare.prog = nil
				if _, want := on.Clone().RunModel(&bare, budget); want == nil || err.Error() != want.Error() {
					t.Errorf("%s %v at %v: error %v, want %v", sysCase.label, m.Scheme, budget, err, want)
				}
				failed++
				return nil
			}
			ran++
			want, err := on.Clone().Execute(m.Bench, m.Modules, r.Alloc, m.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Result, want) {
				t.Errorf("%s %v at %v (seed %#x): RunModel measured a different run than Execute",
					sysCase.label, m.Scheme, budget, on.Sys.Seed)
			}
			return r
		}
		for _, group := range ModelGroups(AllSchemes()) {
			models, err := fw.Clone().BuildModels(bench, ids, group)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range models {
				for _, b := range budgets {
					run(other, m, b)
				}
				var last *SchemeRun
				for _, b := range budgets {
					if r := run(fw, m, b); r != nil {
						last = r
					}
				}
				// The model's hold now exists, drawn at its own seed; a
				// run at the other seed still draws its own.
				run(other, m, budgets[1])
				if last == nil {
					continue
				}
				// A hold of the wrong length is refused, not read past.
				short, err := measure.NewHold(fw.Sys, m.Bench, m.Modules[:n-1])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fw.Clone().execute(m.Bench, m.Modules, last.Alloc, m.Scheme, nil, short); err == nil {
					t.Errorf("%s %v: a hold of %d ranks was accepted for %d", sysCase.label, m.Scheme, n-1, n)
				}
			}
			sharedProg, sharedHold := models[0].program(fw.Sys)
			for _, m := range models {
				if p, h := m.program(fw.Sys); p == nil || p != sharedProg || h == nil || h != sharedHold {
					t.Errorf("%s %v: model holds program %p and hold %p, its group %p and %p",
						sysCase.label, m.Scheme, p, h, sharedProg, sharedHold)
				}
				if p, h := m.program(other.Sys); p != nil || h != nil {
					t.Errorf("%s %v: model offers its program or hold to another seed", sysCase.label, m.Scheme)
				}
			}

			fresh, err := fw.Clone().BuildModels(bench, ids, group)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range fresh {
				replicas := make([]*Framework, 4)
				for i := range replicas {
					replicas[i] = fw.Clone()
				}
				concurrent := make([]*SchemeRun, len(replicas))
				errs := make([]error, len(replicas))
				var wg sync.WaitGroup
				for i, r := range replicas {
					wg.Add(1)
					go func(i int, r *Framework) {
						defer wg.Done()
						concurrent[i], errs[i] = r.RunModel(m, budgets[1])
					}(i, r)
				}
				wg.Wait()
				serial := run(fw, m, budgets[1])
				for i, r := range concurrent {
					if (errs[i] != nil) != (serial == nil) || !reflect.DeepEqual(r, serial) {
						t.Errorf("%s %v: goroutine %d's run (error %v) differs from the serial run", sysCase.label, m.Scheme, i, errs[i])
					}
				}
			}
		}
	}
	if failed > ran/4 {
		t.Fatalf("%d runs failed, %d ran", failed, ran)
	}
}

func TestRunEndToEndPC(t *testing.T) {
	fw, ids := testFramework(t, 64)
	budget := units.Watts(64 * 70)
	run, err := fw.Run(workload.MHD(), ids, budget, VaPc)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Alloc.Feasible || !run.Alloc.Constrained {
		t.Fatalf("allocation %+v", run.Alloc)
	}
	if run.Result.AvgTotalPower > budget {
		t.Fatalf("VaPc violated the budget: %v > %v", run.Result.AvgTotalPower, budget)
	}
	// Per-module CPU power must not exceed the derived cap (RAPL enforces
	// strictly).
	for i, r := range run.Result.Ranks {
		if r.Op.CPUPower > run.Alloc.Entries[i].Pcpu+1e-9 {
			t.Fatalf("module %d above its cap", r.ModuleID)
		}
	}
}

func TestRunEndToEndFS(t *testing.T) {
	fw, ids := testFramework(t, 64)
	budget := units.Watts(64 * 70)
	run, err := fw.Run(workload.MHD(), ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	// FS pins every module to the same P-state: frequency homogeneity is
	// exact.
	f0 := run.Result.Ranks[0].Op.Freq
	for _, r := range run.Result.Ranks {
		if r.Op.Freq != f0 {
			t.Fatalf("FS frequency differs: %v vs %v", r.Op.Freq, f0)
		}
	}
	// The pinned frequency is the α-frequency quantised down.
	want := fw.Sys.Spec.Arch.QuantizeDown(run.Alloc.Freq)
	if f0 != want {
		t.Fatalf("pinned %v, want %v", f0, want)
	}
}

func TestVariationAwareBeatsNaive(t *testing.T) {
	fw, ids := testFramework(t, 128)
	budget := units.Watts(128 * 70)
	bench := workload.MHD()
	naive, err := fw.Run(bench, ids, budget, Naive)
	if err != nil {
		t.Fatal(err)
	}
	vafs, err := fw.Run(bench, ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(naive.Elapsed()) / float64(vafs.Elapsed())
	if speedup < 1.2 {
		t.Fatalf("VaFs speedup over Naive only %v", speedup)
	}
}

func TestFSHomogenizesPerformance(t *testing.T) {
	// The paper's core claim: under VaFs a synchronised code's per-rank
	// times equalise (Vt → 1) while power variation grows.
	fw, ids := testFramework(t, 64)
	budget := units.Watts(64 * 70)
	bench := workload.MHD()
	vafs, err := fw.Run(bench, ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	var times, power []float64
	for _, r := range vafs.Result.Ranks {
		times = append(times, float64(r.End))
		power = append(power, float64(r.Op.ModulePower()))
	}
	if vt := stats.Variation(times); vt > 1.01 {
		t.Errorf("VaFs Vt = %v, want ≈ 1.0", vt)
	}
	if vp := stats.Variation(power); vp < 1.1 {
		t.Errorf("VaFs Vp = %v, expected real power spread", vp)
	}
}

func TestInfeasibleBudget(t *testing.T) {
	fw, ids := testFramework(t, 16)
	_, err := fw.Run(workload.DGEMM(), ids, units.Watts(16*30), VaPc)
	if err == nil {
		t.Fatal("absurd budget accepted")
	}
	var inf ErrBudgetInfeasible
	if !errorsAs(err, &inf) {
		t.Fatalf("want ErrBudgetInfeasible, got %T: %v", err, err)
	}
	if inf.Scheme != VaPc {
		t.Fatalf("error scheme %v", inf.Scheme)
	}
}

func errorsAs(err error, target *ErrBudgetInfeasible) bool {
	e, ok := err.(ErrBudgetInfeasible)
	if ok {
		*target = e
	}
	return ok
}

func TestFrameworkWithPVT(t *testing.T) {
	fw, _ := testFramework(t, 8)
	fw2, err := NewFrameworkWithPVT(fw.Sys, fw.PVT)
	if err != nil {
		t.Fatal(err)
	}
	if fw2.PVT != fw.PVT {
		t.Fatal("PVT not adopted")
	}
	if _, err := NewFrameworkWithPVT(fw.Sys, nil); err == nil {
		t.Error("nil PVT accepted")
	}
	other := &PVT{System: "elsewhere", Entries: fw.PVT.Entries}
	if _, err := NewFrameworkWithPVT(fw.Sys, other); err == nil {
		t.Error("foreign PVT accepted")
	}
}

func TestExecuteLengthMismatch(t *testing.T) {
	fw, ids := testFramework(t, 8)
	pmt := NaivePMT(fw.Sys, ids[:4])
	alloc, err := Solve(pmt, fw.Sys.Spec.Arch, 4*80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Execute(workload.DGEMM(), ids, alloc, Naive); err == nil {
		t.Error("allocation/module length mismatch accepted")
	}
}
