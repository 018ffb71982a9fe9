package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/flight"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// testHetero instantiates a scaled HA8K-hybrid (count CPU modules plus the
// node-derived GPU population) and its hierarchical framework.
func testHetero(t *testing.T, count, workers int) (*Framework, []int, []int) {
	t.Helper()
	spec := cluster.HA8KHybrid()
	sys := cluster.MustNew(spec, count, 0x5c15)
	ids, err := sys.AllocateFirst(count)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := NewHeteroFramework(sys, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	return hf, ids, hf.AllDevices()
}

// heteroBudget picks a system budget between the combined class minima and
// maxima so the split is a real decision (uniform feasible but wasteful on
// the GPU-heavy preset).
func heteroBudget(hf *Framework, bench *workload.Benchmark, moduleIDs, deviceIDs []int, frac float64) units.Watts {
	var min, max units.Watts
	for _, p := range []*PMT{NaivePMT(hf.Sys, moduleIDs), gpuClass.naivePMT(hf.Sys, deviceIDs)} {
		for _, e := range p.Entries {
			min += e.ModuleMin()
			max += e.ModuleMax()
		}
	}
	return units.Watts(units.Lerp(float64(min), float64(max), frac))
}

func TestSplitterByName(t *testing.T) {
	for _, s := range AllSplitters() {
		got, err := SplitterByName(s.String())
		if err != nil || got != s {
			t.Fatalf("SplitterByName(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := SplitterByName("UNIFORM"); err != nil {
		t.Fatal("splitter resolution must be case-insensitive")
	}
	_, err := SplitterByName("nope")
	if err == nil {
		t.Fatal("unknown splitter must error")
	}
}

// TestSplitBudgetConservation: every splitter must return exactly as many
// watts as it was given — the hierarchical layer neither creates nor leaks
// budget — across comfortable, tight, and starved totals.
func TestSplitBudgetConservation(t *testing.T) {
	mkTime := func(base units.Seconds, sens float64) func(float64) units.Seconds {
		return func(alpha float64) units.Seconds {
			return units.Seconds(float64(base) / (1 - sens + sens*(0.5+0.5*alpha)))
		}
	}
	demands := func() []ClassDemand {
		return []ClassDemand{
			{Class: "cpu", Min: 1200, Max: 2600, TimeAt: mkTime(100, 0.8)},
			{Class: "gpu", Min: 7000, Max: 15000, TimeAt: mkTime(140, 0.6)},
			{Class: "nic", Min: 0, Max: 300, TimeAt: mkTime(10, 0.1)},
		}
	}
	for _, s := range AllSplitters() {
		for _, total := range []units.Watts{5000, 8200.37, 11111.11, 17000, 30000} {
			shares, err := SplitBudget(s, total, demands())
			if err != nil {
				t.Fatalf("%v/%v: %v", s, total, err)
			}
			if len(shares) != 3 {
				t.Fatalf("%v: %d shares", s, len(shares))
			}
			var sum units.Watts
			for _, w := range shares {
				if w < 0 {
					t.Fatalf("%v/%v: negative share %v", s, total, w)
				}
				sum += w
			}
			if rel := math.Abs(float64(sum-total)) / float64(total); rel > 1e-9 {
				t.Fatalf("%v/%v: shares sum to %v (relative error %g)", s, total, sum, rel)
			}
		}
	}
}

// TestSplitBudgetPolicies: spot-check each policy's defining behaviour on
// the GPU-heavy demand shape.
func TestSplitBudgetPolicies(t *testing.T) {
	mkTime := func(base units.Seconds, sens float64) func(float64) units.Seconds {
		return func(alpha float64) units.Seconds {
			return units.Seconds(float64(base) / (1 - sens + sens*(0.5+0.5*alpha)))
		}
	}
	demands := []ClassDemand{
		{Class: "cpu", Min: 1000, Max: 2000, TimeAt: mkTime(50, 0.7)},
		{Class: "gpu", Min: 8000, Max: 16000, TimeAt: mkTime(200, 0.7)},
	}
	total := units.Watts(12000)
	uni, err := SplitBudget(SplitUniform, total, demands)
	if err != nil {
		t.Fatal(err)
	}
	if uni[0] != uni[1] {
		t.Fatalf("uniform shares unequal: %v", uni)
	}
	// Uniform starves the GPU class below its minimum on this shape.
	if uni[1] >= demands[1].Min {
		t.Fatalf("test shape too easy: uniform GPU share %v covers Min %v", uni[1], demands[1].Min)
	}
	prop, err := SplitBudget(SplitProportional, total, demands)
	if err != nil {
		t.Fatal(err)
	}
	if prop[1] <= prop[0] {
		t.Fatalf("proportional must favour the larger class: %v", prop)
	}
	for _, s := range []Splitter{SplitProportional, SplitEfficiency, SplitGreedy} {
		shares, err := SplitBudget(s, total, demands)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range demands {
			if shares[i] < d.Min-1e-9 {
				t.Fatalf("%v starved %s: %v < %v (total covers ΣMin)", s, d.Class, shares[i], d.Min)
			}
		}
	}
	// Greedy with identical sensitivities pours power into the class whose
	// time dominates (the GPU class here).
	greedy, err := SplitBudget(SplitGreedy, total, demands)
	if err != nil {
		t.Fatal(err)
	}
	if greedy[1] <= uni[1] {
		t.Fatalf("greedy GPU share %v not above uniform %v", greedy[1], uni[1])
	}
}

func TestSolveGPUProperties(t *testing.T) {
	hf, _, devs := testHetero(t, 16, 1)
	bench := workload.MHD()
	gm, err := hf.BuildGPUModel(bench, devs, VaPcOr)
	if err != nil {
		t.Fatal(err)
	}
	var min, max units.Watts
	for _, e := range gm.PMT.Entries {
		min += e.ModuleMin()
		max += e.ModuleMax()
	}
	budget := (min + max) / 2
	garch := hf.Sys.Spec.GPU.Arch
	alloc, err := gm.Allocate(hf.Sys.Spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Alpha <= 0 || alloc.Alpha >= 1 || !alloc.Constrained || !alloc.Feasible {
		t.Fatalf("mid-range budget should solve interior: %+v", alloc)
	}
	if got := alloc.TotalPredicted(); got > budget+1e-9 {
		t.Fatalf("allocation %v exceeds class budget %v", got, budget)
	}
	if alloc.Freq <= garch.ClockMin || alloc.Freq >= garch.ClockNom {
		t.Fatalf("interior α must land between ClockMin and ClockNom, got %v", alloc.Freq)
	}
	// Clamped regime: below ΣPmin the solve shrinks proportionally.
	clamped, err := gm.Allocate(hf.Sys.Spec, min*0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !clamped.Clamped || clamped.Alpha != 0 {
		t.Fatalf("sub-minimum budget must clamp: %+v", clamped)
	}
	if got := clamped.TotalPredicted(); got > min*0.9+1e-9 {
		t.Fatalf("clamped allocation %v exceeds budget %v", got, min*0.9)
	}
}

// TestGenerateGPUPVTWorkerDeterminism: the device-class table must be
// deep-equal at every worker width (satellite: workers 1, 2, GOMAXPROCS).
func TestGenerateGPUPVTWorkerDeterminism(t *testing.T) {
	var want *PVT
	for _, w := range workerWidths() {
		sys := cluster.MustNew(cluster.HA8KHybrid(), 32, 0x5c15)
		pvt, err := GenerateGPUPVT(context.Background(), sys, w)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = pvt
			continue
		}
		if !reflect.DeepEqual(want, pvt) {
			t.Fatalf("GPU PVT differs at %d workers", w)
		}
	}
}

// TestGPUPVTPopulation: scales are centred on 1 and actually vary.
func TestGPUPVTPopulation(t *testing.T) {
	sys := cluster.MustNew(cluster.HA8KHybrid(), 256, 0x5c15)
	pvt, err := GenerateGPUPVT(context.Background(), sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	spread := false
	for _, e := range pvt.Entries {
		sum += e.CPUMax
		if math.Abs(e.CPUMax-1) > 0.02 {
			spread = true
		}
	}
	mean := sum / float64(len(pvt.Entries))
	if math.Abs(mean-1) > 1e-9 {
		t.Fatalf("board power scales at ClockNom mean %v, want 1 (normalised)", mean)
	}
	if !spread {
		t.Fatal("GPU population shows no manufacturing variability")
	}
}

// TestHeteroRunDeterminism: a full hierarchical run — including the flight
// trace it records — must be identical at workers 1, 2, and GOMAXPROCS.
func TestHeteroRunDeterminism(t *testing.T) {
	bench := workload.MHD()
	var wantRun *HeteroRun
	var wantTrace []byte
	for _, w := range workerWidths() {
		hf, ids, devs := testHetero(t, 32, w)
		budget := heteroBudget(hf, bench, ids, devs, 0.6)
		hf.Recorder = flight.New(flight.Config{Hz: 2})
		run, err := hf.RunHetero(bench, ids, devs, budget, VaPc, SplitGreedy)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := flight.WriteTrace(&buf, hf.Recorder.Snapshot()); err != nil {
			t.Fatal(err)
		}
		hf.Recorder = nil
		if wantRun == nil {
			wantRun, wantTrace = run, buf.Bytes()
			continue
		}
		if !reflect.DeepEqual(wantRun, run) {
			t.Fatalf("hetero run differs at %d workers", w)
		}
		if !bytes.Equal(wantTrace, buf.Bytes()) {
			t.Fatalf("flight trace differs at %d workers", w)
		}
	}
}

// TestHeteroEndToEndPC: the measured system power honours the machine
// budget, and every class stays within its share.
func TestHeteroEndToEndPC(t *testing.T) {
	hf, ids, devs := testHetero(t, 32, 0)
	bench := workload.MHD()
	budget := heteroBudget(hf, bench, ids, devs, 0.6)
	run, err := hf.RunHetero(bench, ids, devs, budget, VaPc, SplitGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if run.AvgPower > budget {
		t.Fatalf("hetero VaPc violated the budget: %v > %v", run.AvgPower, budget)
	}
	if run.CPU.AvgTotalPower > run.Alloc.CPUBudget+1e-9 {
		t.Fatalf("CPU class %v above its share %v", run.CPU.AvgTotalPower, run.Alloc.CPUBudget)
	}
	if run.GPUPower > run.Alloc.GPUBudget+1e-9 {
		t.Fatalf("GPU class %v above its share %v", run.GPUPower, run.Alloc.GPUBudget)
	}
	if run.MinClock <= 0 || run.Elapsed <= 0 {
		t.Fatalf("degenerate run %+v", run)
	}
}

// TestHeteroEndToEndFS: FS locks every device to the common quantised
// application clock; delivered clocks can only differ where the always-on
// TDP ceiling throttles a power-hungry board below the lock.
func TestHeteroEndToEndFS(t *testing.T) {
	hf, ids, devs := testHetero(t, 32, 0)
	bench := workload.MHD()
	budget := heteroBudget(hf, bench, ids, devs, 0.6)
	run, err := hf.RunHetero(bench, ids, devs, budget, VaFs, SplitGreedy)
	if err != nil {
		t.Fatal(err)
	}
	want := hf.Sys.Spec.GPU.Arch.QuantizeDown(run.Alloc.GPU.Freq)
	for _, id := range devs {
		locked, ok := hf.Sys.GPUCtl(id).LockedClock()
		if !ok || locked != want {
			t.Fatalf("device %d locked at %v, want %v", id, locked, want)
		}
	}
	if run.MinClock > want {
		t.Fatalf("delivered clock %v above the lock %v", run.MinClock, want)
	}
}

// TestHierarchicalBeatsUniform is the PR's acceptance property: on the
// GPU-heavy hybrid preset, at least one hierarchical splitter must strictly
// beat the naive uniform class split under the same scheme.
func TestHierarchicalBeatsUniform(t *testing.T) {
	hf, ids, devs := testHetero(t, 32, 0)
	bench := workload.MHD()
	budget := heteroBudget(hf, bench, ids, devs, 0.55)
	uniform, err := hf.Clone().RunHetero(bench, ids, devs, budget, VaPc, SplitUniform)
	if err != nil {
		t.Fatal(err)
	}
	best := uniform.Elapsed
	for _, s := range []Splitter{SplitProportional, SplitEfficiency, SplitGreedy} {
		run, err := hf.Clone().RunHetero(bench, ids, devs, budget, VaPc, s)
		if err != nil {
			t.Fatal(err)
		}
		if run.Elapsed < best {
			best = run.Elapsed
		}
	}
	if !(best < uniform.Elapsed) {
		t.Fatalf("no hierarchical splitter beat uniform (%v)", uniform.Elapsed)
	}
}

// TestHeteroFrameworkGuards: non-hybrid systems are rejected, and a
// framework without a GPU table cannot solve the hybrid pipeline.
func TestHeteroFrameworkGuards(t *testing.T) {
	sys := cluster.MustNew(cluster.HA8K(), 8, 1)
	if _, err := NewHeteroFramework(sys, nil, 1); err == nil {
		t.Fatal("non-hybrid system accepted")
	}
	hf, ids, devs := testHetero(t, 8, 1)
	fw, err := NewFrameworkWithPVT(hf.Sys, hf.PVT)
	if err != nil {
		t.Fatal(err)
	}
	bench := workload.MHD()
	budget := heteroBudget(hf, bench, ids, devs, 0.7)
	if _, _, _, err := fw.SolveHetero(bench, ids, devs, budget, VaPc, SplitGreedy); err == nil {
		t.Fatal("framework without a GPU PVT solved the hybrid pipeline")
	}
	if _, err := fw.RunHetero(bench, ids, devs, budget, VaPc, SplitGreedy); err == nil {
		t.Fatal("framework without a GPU PVT ran the hybrid pipeline")
	}
	if _, _, _, err := hf.SolveHetero(bench, ids, devs, budget, VaPc, SplitGreedy); err != nil {
		t.Fatalf("hybrid framework: %v", err)
	}
}
