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

// testRun is one test run of bench on module id at f: a run of a Tester of
// its own, which publishes the run's telemetry before testRun returns.
func testRun(sys *cluster.System, bench *workload.Benchmark, id int, f units.Hertz) (TestRunResult, error) {
	t, err := NewTester(sys, bench)
	if err != nil {
		return TestRunResult{}, err
	}
	m, err := t.Member(id)
	if err != nil {
		return TestRunResult{}, err
	}
	var b telemetry.Batch
	defer b.Flush()
	return t.Run(m, f, &b)
}

// TestTestRunMatchesRun: a test run measures exactly what a Run of its
// one-module pinned configuration measures — for every benchmark at fmax
// and fmin, on every module, healthy and under the committed chaos plan
// (spiking and dropping counters, dying, slow and drifting modules). Each
// side gets its own fresh clone and runs every module twice back to back,
// so the energy-counter residue of the first run carries into the second
// the same way on both. The same holds for a Tester's pairs recorded into
// chunked batches, as the calibration sweeps make them; core's
// TestChunkedTestRunsMatchRun checks the sweeps themselves.
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
						tr, err := testRun(got, bench, id, freq)
						ref, rerr := referenceTestRun(want, bench, id, freq)
						if (err == nil) != (rerr == nil) {
							t.Fatalf("faulty=%v %s at %v module %d run %d: test run error %v, Run error %v",
								base == faulty, bench.Name, freq, id, run, err, rerr)
						}
						if !reflect.DeepEqual(tr, ref) {
							t.Fatalf("faulty=%v %s at %v module %d run %d: test run %+v, Run %+v",
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

	// The calibration sweeps' path: one Tester per benchmark, each
	// member's draws made once for its pair (fmax, then fmin), and the
	// runs recorded into one batch per chunk of 32 members. Over 37
	// members (not a multiple of the chunk) followed by an allocation
	// that lists modules twice, it measures what the Runs do, member by
	// member in the same order.
	order := append(ids[:37:37], 3, 11, 3, 20, 11)
	for _, base := range []*cluster.System{healthy, faulty} {
		for _, bench := range benches {
			got, want := base.Clone(), base.Clone()
			tester, err := NewTester(got, bench)
			if err != nil {
				t.Fatal(err)
			}
			var b telemetry.Batch
			for i, id := range order {
				m, err := tester.Member(id)
				if err != nil {
					t.Fatal(err)
				}
				for _, freq := range []units.Hertz{arch.FNom, arch.FMin} {
					tr, err := tester.Run(m, freq, &b)
					ref, rerr := referenceTestRun(want, bench, id, freq)
					if err != nil || rerr != nil || tr != ref {
						t.Fatalf("faulty=%v %s member %d (module %d) at %v: tester %+v (%v), Run %+v (%v)",
							base == faulty, bench.Name, i, id, freq, tr, err, ref, rerr)
					}
				}
				if (i+1)%32 == 0 {
					b.Flush()
				}
			}
			b.Flush()
		}
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
// run of their mode, and both observe one rank wait per rank. Test runs
// made into a batch publish the same, all at once, when it is flushed.
func TestTestRunTimedAsOnePhase(t *testing.T) {
	sys, ids := testSystem(t, 8)
	arch := sys.Spec.Arch
	pinned := mRuns[ModePinned]
	wait := func() uint64 { return mRankWait.Snapshot().Count }

	runs, waits := pinned.Value(), wait()
	got := phaseDeltas(func() {
		if _, err := testRun(sys, workload.MHD(), ids[3], arch.FNom); err != nil {
			t.Fatal(err)
		}
	})
	want := map[string]uint64{"measure.test_run": 1}
	for _, p := range runPhases {
		want[p] = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("test run phase samples %v, want %v", got, want)
	}
	if d := pinned.Value() - runs; d != 1 {
		t.Fatalf("test run counted %v pinned runs, want 1", d)
	}
	if d := wait() - waits; d != 1 {
		t.Fatalf("test run observed %d rank waits, want 1", d)
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

	// A batch of k test runs publishes nothing before it is flushed, and
	// after it exactly k runs' worth: k measure.test_run samples and no Run
	// phase, k pinned runs, k rank waits, k times one run's rounds of each
	// kind, and the governor's k set calls.
	const k = 6
	one := published()
	if _, err := testRun(sys, workload.MHD(), ids[0], arch.FMin); err != nil {
		t.Fatal(err)
	}
	perRun := published().minus(one)
	tester, err := NewTester(sys, workload.MHD())
	if err != nil {
		t.Fatal(err)
	}
	var b telemetry.Batch
	before := published()
	for i := 0; i < k; i++ {
		m, err := tester.Member(ids[i%len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tester.Run(m, []units.Hertz{arch.FNom, arch.FMin}[i%2], &b); err != nil {
			t.Fatal(err)
		}
	}
	if got := published().minus(before); got != (publishedCounts{}) {
		t.Fatalf("%d batched test runs published %+v before the flush", k, got)
	}
	b.Flush()
	wantBatch := publishedCounts{testRuns: k, pinned: k, rankWaits: k, setCalls: k}
	for kind, n := range perRun.rounds {
		wantBatch.rounds[kind] = k * n
	}
	if got := published().minus(before); got != wantBatch {
		t.Fatalf("%d batched test runs published %+v, want %+v", k, got, wantBatch)
	}
	if perRun.rounds == ([4]float64{}) {
		t.Fatal("a test run played no rounds")
	}
}

// publishedCounts is what the default registry holds of the metrics a test
// run writes: phase samples, pinned runs, rank waits, governor set calls
// and DES rounds by kind.
type publishedCounts struct {
	testRuns, runPhases, rankWaits uint64
	pinned, setCalls               float64
	rounds                         [4]float64 // compute, sendrecv, barrier, allreduce
}

func published() publishedCounts {
	reg := telemetry.Default()
	c := publishedCounts{
		testRuns:  phaseSamples("measure.test_run"),
		rankWaits: mRankWait.Snapshot().Count,
		pinned:    mRuns[ModePinned].Value(),
		setCalls:  reg.Counter("varpower_cpufreq_set_calls_total", "", nil).Value(),
	}
	for _, p := range runPhases {
		c.runPhases += phaseSamples(p)
	}
	for i, kind := range []string{"compute", "sendrecv", "barrier", "allreduce"} {
		c.rounds[i] = reg.Counter("varpower_mpi_rounds_total", "", telemetry.Labels{"kind": kind}).Value()
	}
	return c
}

// minus is c's growth since before.
func (c publishedCounts) minus(before publishedCounts) publishedCounts {
	d := publishedCounts{
		testRuns: c.testRuns - before.testRuns, runPhases: c.runPhases - before.runPhases,
		rankWaits: c.rankWaits - before.rankWaits,
		pinned:    c.pinned - before.pinned, setCalls: c.setCalls - before.setCalls,
	}
	for i := range d.rounds {
		d.rounds[i] = c.rounds[i] - before.rounds[i]
	}
	return d
}
