package measure

import (
	"os"
	"reflect"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// referenceTestRun is a test run as a full Run: the same one-module pinned
// configuration with the iterations capped at 5, through Run's spans,
// fan-out and account.
func referenceTestRun(sys *cluster.System, bench *workload.Benchmark, id int, f units.Hertz) (TestRunResult, error) {
	short := *bench
	if short.Iterations > 5 {
		short.Iterations = 5
	}
	res, err := Run(sys, Config{Bench: &short, Modules: []int{id}, Mode: ModePinned, Freqs: []units.Hertz{f}})
	if err != nil {
		return TestRunResult{}, err
	}
	r := res.Ranks[0]
	return TestRunResult{Freq: r.Op.Freq, CPUPower: r.AvgCPUPower, DramPower: r.AvgDramPower}, nil
}

// TestTestRunMatchesRun: TestRun measures exactly what a Run of its
// one-module pinned configuration measures — for every benchmark at fmax
// and fmin, on every module, healthy and under the committed chaos plan
// (spiking and dropping counters, dying, slow and drifting modules). Each
// side gets its own fresh clone and runs every module twice back to back,
// so the energy-counter residue of the first run carries into the second
// the same way on both.
func TestTestRunMatchesRun(t *testing.T) {
	f, err := os.Open("../../testdata/chaos-plan.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := faults.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	const n = 48 // covers every module the chaos plan names
	healthy, ids := testSystem(t, n)
	faulty, _ := faultySystem(t, n, plan)
	arch := healthy.Spec.Arch
	benches := append(workload.All(), workload.PVTMicrobenchmark())
	type key struct {
		bench   string
		freq    units.Hertz
		id, run int
	}
	healthyRuns := map[key]TestRunResult{}
	perturbed := 0 // faulty-side measurements the plan moved off the healthy ones
	for _, base := range []*cluster.System{healthy, faulty} {
		for _, bench := range benches {
			for _, freq := range []units.Hertz{arch.FNom, arch.FMin} {
				got, want := base.Clone(), base.Clone()
				for _, id := range ids {
					for run := 0; run < 2; run++ {
						tr, err := TestRun(got, bench, id, freq)
						ref, rerr := referenceTestRun(want, bench, id, freq)
						if (err == nil) != (rerr == nil) {
							t.Fatalf("faulty=%v %s at %v module %d run %d: TestRun error %v, Run error %v",
								base == faulty, bench.Name, freq, id, run, err, rerr)
						}
						if !reflect.DeepEqual(tr, ref) {
							t.Fatalf("faulty=%v %s at %v module %d run %d: TestRun %+v, Run %+v",
								base == faulty, bench.Name, freq, id, run, tr, ref)
						}
						k := key{bench.Name, freq, id, run}
						if base == healthy {
							healthyRuns[k] = tr
						} else if tr != healthyRuns[k] {
							perturbed++
						}
					}
				}
			}
		}
	}
	if perturbed == 0 {
		t.Fatal("the chaos plan changed no test run: the faulty half compares healthy runs")
	}
}

// phaseSamples reads one phase's sample count from the default registry.
func phaseSamples(phase string) uint64 {
	return telemetry.Default().Histogram(telemetry.PhaseDurationMetric, "", telemetry.DefTimeBuckets,
		telemetry.Labels{"phase": phase}).Snapshot().Count
}

// runPhases are the phases a Run times, in the order it opens them.
var runPhases = []string{"measure.run", "measure.resolve", "measure.simulate", "measure.account"}

// phaseDeltas runs fn and returns how many samples each phase gained.
func phaseDeltas(fn func()) map[string]uint64 {
	phases := append([]string{"measure.test_run"}, runPhases...)
	before := make(map[string]uint64, len(phases))
	for _, p := range phases {
		before[p] = phaseSamples(p)
	}
	fn()
	out := make(map[string]uint64, len(phases))
	for _, p := range phases {
		out[p] = phaseSamples(p) - before[p]
	}
	return out
}

// TestTestRunTimedAsOnePhase pins the calibration telemetry: a test run is
// one measure.test_run sample and no Run phase, while a Run is one sample
// of each of its four phases and none of measure.test_run. Both count as a
// run of their mode, and both observe one rank wait per rank.
func TestTestRunTimedAsOnePhase(t *testing.T) {
	sys, ids := testSystem(t, 8)
	arch := sys.Spec.Arch
	pinned := mRuns[ModePinned]
	wait := func() uint64 { return mRankWait.Snapshot().Count }

	runs, waits := pinned.Value(), wait()
	got := phaseDeltas(func() {
		if _, err := TestRun(sys, workload.MHD(), ids[3], arch.FNom); err != nil {
			t.Fatal(err)
		}
	})
	want := map[string]uint64{"measure.test_run": 1}
	for _, p := range runPhases {
		want[p] = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TestRun phase samples %v, want %v", got, want)
	}
	if d := pinned.Value() - runs; d != 1 {
		t.Fatalf("TestRun counted %v pinned runs, want 1", d)
	}
	if d := wait() - waits; d != 1 {
		t.Fatalf("TestRun observed %d rank waits, want 1", d)
	}

	freqs := make([]units.Hertz, len(ids))
	for i := range freqs {
		freqs[i] = arch.FMin
	}
	runs, waits = pinned.Value(), wait()
	got = phaseDeltas(func() {
		if _, err := Run(sys, Config{Bench: workload.MHD(), Modules: ids, Mode: ModePinned, Freqs: freqs}); err != nil {
			t.Fatal(err)
		}
	})
	want = map[string]uint64{"measure.test_run": 0}
	for _, p := range runPhases {
		want[p] = 1
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run phase samples %v, want %v", got, want)
	}
	if d := pinned.Value() - runs; d != 1 {
		t.Fatalf("Run counted %v pinned runs, want 1", d)
	}
	if d := wait() - waits; d != uint64(len(ids)) {
		t.Fatalf("Run observed %d rank waits, want %d", d, len(ids))
	}
}
