package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/workload"
)

// TestHeteroGolden pins the hierarchical CPU+GPU pipeline on a 16-module
// HA8K-hybrid, healthy and under testdata/chaos-plan.json, for MHD and
// *DGEMM at 0.55 of the naive envelope: for every scheme × splitter,
// SolveHetero's class budgets, both classes' α, ladder value and flags,
// every module's and device's allocation and the predicted time; then
// RunHetero's elapsed time, power, minimum SM clock and energy for Naive,
// VaPc and VaFs under the greedy splitter. Every cell runs on its own
// replica. A device is a one-channel module: its PVT entries must carry
// DRAM scales of 1, its PMT entries DRAM power 0 and its allocations
// Pdram 0 and Pcpu = Pmodule. Regenerate with
//
//	go test ./internal/core -run TestHeteroGolden -update
func TestHeteroGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "chaos-plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := faults.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, sysCase := range []struct {
		label string
		plan  *faults.Plan
	}{{"healthy", nil}, {"chaos", chaos}} {
		hf, ids, devs := testHeteroPlan(t, 16, sysCase.plan)
		for _, e := range hf.GPVT.Entries {
			if e.DramMax != 1 || e.DramMin != 1 {
				t.Errorf("%s: device %d PVT entry has DRAM scales %v/%v, want 1", sysCase.label, e.ModuleID, e.DramMax, e.DramMin)
			}
		}
		for _, bench := range []*workload.Benchmark{workload.MHD(), workload.DGEMM()} {
			budget := heteroBudget(hf, bench, ids, devs, 0.55)
			prefix := fmt.Sprintf("%s %s", sysCase.label, bench.Name)
			fmt.Fprintf(&buf, "%s budget=%s\n", prefix, full(float64(budget)))
			for _, scheme := range AllSchemes() {
				for _, splitter := range AllSplitters() {
					cell := fmt.Sprintf("%s %v %v", prefix, scheme, splitter)
					alloc, _, gpmt, err := hf.Clone().SolveHetero(bench, ids, devs, budget, scheme, splitter)
					if err != nil {
						fmt.Fprintf(&buf, "%s solve err=%v\n", cell, err)
						continue
					}
					for _, e := range gpmt.Entries {
						if e.DramMax != 0 || e.DramMin != 0 {
							t.Errorf("%s: device %d PMT entry has DRAM power %v/%v, want 0", cell, e.ModuleID, e.DramMax, e.DramMin)
						}
					}
					writeHeteroAlloc(&buf, cell, alloc)
				}
			}
			for _, scheme := range []Scheme{Naive, VaPc, VaFs} {
				cell := fmt.Sprintf("%s %v %v", prefix, scheme, SplitGreedy)
				run, err := hf.Clone().RunHetero(bench, ids, devs, budget, scheme, SplitGreedy)
				if err != nil {
					fmt.Fprintf(&buf, "%s run err=%v\n", cell, err)
					continue
				}
				fmt.Fprintf(&buf, "%s run elapsed=%s power=%s min_clock=%s energy=%s\n", cell,
					full(float64(run.Elapsed)), full(float64(run.AvgPower)),
					full(float64(run.MinClock)), full(float64(run.Energy)))
			}
		}
	}

	path := filepath.Join("testdata", "hetero.golden")
	if *update {
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
		t.Errorf("%s: hierarchical pipeline diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with -update.",
			path, buf.Bytes(), want)
	}
}

// testHeteroPlan is testHetero at workers 1 with plan, when non-nil,
// installed before the install-time sweeps.
func testHeteroPlan(t *testing.T, count int, plan *faults.Plan) (*Framework, []int, []int) {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8KHybrid(), count, 0x5c15)
	if plan != nil {
		sys.InstallFaults(faults.MustInjector(plan))
	}
	ids, err := sys.AllocateFirst(count)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := NewHeteroFramework(sys, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return hf, ids, hf.AllDevices()
}

func writeHeteroAlloc(buf *bytes.Buffer, cell string, a *HeteroAllocation) {
	fmt.Fprintf(buf, "%s cpu_budget=%s gpu_budget=%s predicted_time=%s\n", cell,
		full(float64(a.CPUBudget)), full(float64(a.GPUBudget)), full(float64(a.PredictedTime)))
	fmt.Fprintf(buf, "%s cpu alpha=%s freq=%s budget=%s feasible=%v clamped=%v constrained=%v\n", cell,
		full(a.CPU.Alpha), full(float64(a.CPU.Freq)), full(float64(a.CPU.Budget)),
		a.CPU.Feasible, a.CPU.Clamped, a.CPU.Constrained)
	fmt.Fprintf(buf, "%s gpu alpha=%s clock=%s budget=%s feasible=%v clamped=%v constrained=%v\n", cell,
		full(a.GPU.Alpha), full(float64(a.GPU.Freq)), full(float64(a.GPU.Budget)),
		a.GPU.Feasible, a.GPU.Clamped, a.GPU.Constrained)
	for _, e := range a.CPU.Entries {
		fmt.Fprintf(buf, "%s module %d pmodule=%s pcpu=%s pdram=%s\n", cell,
			e.ModuleID, full(float64(e.Pmodule)), full(float64(e.Pcpu)), full(float64(e.Pdram)))
	}
	for _, e := range a.GPU.Entries {
		if e.Pdram != 0 || e.Pcpu != e.Pmodule {
			fmt.Fprintf(buf, "%s device %d pcpu=%s pdram=%s, want pcpu=pmodule and pdram=0\n", cell,
				e.ModuleID, full(float64(e.Pcpu)), full(float64(e.Pdram)))
		}
		fmt.Fprintf(buf, "%s device %d limit=%s\n", cell, e.ModuleID, full(float64(e.Pmodule)))
	}
}
