package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/measure"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// chaosPlan loads testdata/chaos-plan.json: spiking and dropping counters,
// two module deaths, a slow node and a drifting cap.
func chaosPlan(t *testing.T) *faults.Plan {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "chaos-plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := faults.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// calibrationSystem is a 0x5c15 HA8K system of n modules, under plan when
// it is not nil.
func calibrationSystem(n int, plan *faults.Plan) *cluster.System {
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	if plan != nil {
		sys.InstallFaults(faults.MustInjector(plan))
	}
	return sys
}

// referencePairs measures module test pairs the way Runs of the one-module
// pinned configuration do: measure.Run at fmax and then at fmin with the
// iterations capped at 5, each publishing its telemetry at once.
func referencePairs(sys *cluster.System, bench *workload.Benchmark, lo, hi units.Hertz) pairFunc {
	short := *bench
	short.Iterations = min(short.Iterations, 5)
	return func(id int, _ *telemetry.Batch) (TestPair, error) {
		return pairAt(id, hi, lo, func(f units.Hertz) (measure.TestRunResult, error) {
			res, err := measure.Run(sys, measure.Config{Bench: &short, Modules: []int{id}, Mode: measure.ModePinned, Freqs: []units.Hertz{f}})
			if err != nil {
				return measure.TestRunResult{}, err
			}
			r := res.Ranks[0]
			return measure.TestRunResult{Freq: r.Op.Freq, CPUPower: r.AvgCPUPower, DramPower: r.AvgDramPower}, nil
		})
	}
}

// TestChunkedTestRunsMatchRun: the calibration fan-outs — the install-time
// sweep and the oracle measurement, each a chunked fan-out over one tester
// with a batch per chunk — measure exactly what one Run per test run
// measures in a serial loop, for every benchmark (each pair runs at fmax
// and fmin), healthy and under the chaos plan (whose module 11 dies part
// way through the DGEMM and NPB-EP test runs), at 37 members, which is not
// a multiple of the chunk. The oracle also measures an allocation that
// lists modules twice, which the serial rule keeps in allocation order.
// Each side runs on its own fresh clone, so the energy-counter residue a
// pair leaves carries into the next pair the same way on both.
func TestChunkedTestRunsMatchRun(t *testing.T) {
	const n = 37
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	dup := []int{3, 11, 3, 20, 7, 11, 2, 36, 2}
	reference := *moduleClass
	reference.pairs = referencePairs
	benches := append(workload.All(), workload.PVTMicrobenchmark())
	type oracleKey struct {
		bench string
		n     int
	}
	healthyOracle := map[oracleKey]*PMT{}
	perturbed := 0
	for _, plan := range []*faults.Plan{nil, chaosPlan(t)} {
		base := calibrationSystem(n, plan)
		for _, bench := range benches {
			for _, ids := range [][]int{all, dup} {
				got, err := OraclePMTWorkers(base.Clone(), bench, ids, 0)
				if err != nil {
					t.Fatalf("faulty=%v %s oracle of %v: %v", plan != nil, bench.Name, ids, err)
				}
				ref := base.Clone()
				pairs := reference.tester(ref, bench)
				want := &PMT{Workload: bench.Name}
				for _, id := range ids {
					pair, err := pairs(id, nil)
					if err != nil {
						t.Fatalf("faulty=%v %s reference pair on module %d: %v", plan != nil, bench.Name, id, err)
					}
					want.Entries = append(want.Entries, PMTEntry{ModuleID: id,
						CPUMax: pair.AtMax.CPUPower, DramMax: pair.AtMax.DramPower,
						CPUMin: pair.AtMin.CPUPower, DramMin: pair.AtMin.DramPower})
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("faulty=%v %s oracle of %v:\n%+v\nwant the serial Runs'\n%+v", plan != nil, bench.Name, ids, got, want)
				}
				if key := (oracleKey{bench.Name, len(ids)}); plan == nil {
					healthyOracle[key] = got
				} else if !reflect.DeepEqual(got, healthyOracle[key]) {
					perturbed++
				}
			}

			got, gerr := moduleClass.generate(context.Background(), base.Clone(), n, bench, 0)
			want, werr := reference.generate(context.Background(), base.Clone(), n, bench, 1)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("faulty=%v %s sweep: %+v (%v)\nwant the serial Runs'\n%+v (%v)", plan != nil, bench.Name, got, gerr, want, werr)
			}
		}
	}
	if perturbed == 0 {
		t.Fatal("the chaos plan changed no oracle table: the faulty half compares healthy runs")
	}
}
