package service_test

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/faults"
	"varpower/internal/service"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// chaosPlan loads the committed fault plan.
func chaosPlan(t *testing.T) *faults.Plan {
	t.Helper()
	f, err := os.Open("../../testdata/chaos-plan.json")
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

// freshReplica is the framework a served solve of spec starts from. The
// daemon builds each owned system (32 modules at the serving seed, the boot
// fault plan, the install-time tables) and solves on clones of it; a
// request with a fault level it solves on a system built for the request,
// with the level's generated plan.
func freshReplica(t *testing.T, spec cluster.Spec, boot *faults.Plan, level string) *core.Framework {
	t.Helper()
	sys, err := cluster.New(spec, 32, 0x5c15)
	if err != nil {
		t.Fatal(err)
	}
	plan := boot
	if level != "" {
		l, err := faults.LevelByName(level)
		if err != nil {
			t.Fatal(err)
		}
		if plan, err = faults.Generate(0x5c15, l.Spec, 32); err != nil {
			t.Fatal(err)
		}
	}
	if plan != nil {
		sys.InstallFaults(faults.MustInjector(plan))
	}
	var fw *core.Framework
	if spec.Hybrid() {
		fw, err = core.NewHeteroFramework(sys, nil, 0)
	} else {
		fw, err = core.NewFrameworkWorkers(sys, nil, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if level != "" {
		return fw
	}
	return fw.Clone()
}

// TestServedSolveMatchesAllocate is the one-allocation-path property: at 32
// modules, for every scheme and three budgets (one infeasible), on healthy
// systems, under the chaos plan and at fault level high, CPU-only and
// hybrid, a served /v1/solve body carries the α, frequency and allocations
// that BuildModel → Allocate gives on a fresh replica, and a feasible
// answer predicts no more than the budget less the model's margin. A hybrid
// body is compared class by class at its class budgets. A served failure
// must be the reference's error.
func TestServedSolveMatchesAllocate(t *testing.T) {
	plan := chaosPlan(t)
	for _, tc := range []struct {
		system, workload string
		budgets          []float64
	}{
		{"HA8K", "dgemm", []float64{1600, 2400, 3600}},
		{"HA8K-hybrid", "mhd", []float64{6000, 12000, 20000}},
	} {
		for _, v := range []struct {
			name  string
			boot  *faults.Plan
			level string
		}{{"healthy", nil, ""}, {"chaos", plan, ""}, {"high", nil, "high"}} {
			t.Run(tc.system+"/"+v.name, func(t *testing.T) {
				spec, err := cluster.SpecByName(tc.system)
				if err != nil {
					t.Fatal(err)
				}
				bench, err := workload.ByName(tc.workload)
				if err != nil {
					t.Fatal(err)
				}
				_, hs, _ := newTestServer(t, service.Config{
					Systems: []string{tc.system}, Modules: 32, Seed: 0x5c15, Faults: v.boot,
				})
				for _, scheme := range core.AllSchemes() {
					req := service.SolveRequest{System: spec.Name, Workload: bench.Name, Scheme: scheme.String(), Faults: v.level}
					checkScheme(t, hs.URL, req, spec, bench, scheme, freshReplica(t, spec, v.boot, v.level), tc.budgets)
				}
			})
		}
	}
}

// checkScheme compares the served bodies of req's scheme at each budget
// with the models built on ref.
func checkScheme(t *testing.T, url string, req service.SolveRequest, spec cluster.Spec, bench *workload.Benchmark,
	scheme core.Scheme, ref *core.Framework, budgets []float64) {
	t.Helper()
	ids, err := ref.Sys.AllocateFirst(32)
	if err != nil {
		t.Fatal(err)
	}
	m, refErr := ref.BuildModel(bench, ids, scheme)
	var gm *core.Model
	if spec.Hybrid() && refErr == nil {
		gm, refErr = ref.BuildGPUModel(bench, ref.AllDevices(), scheme)
	}
	if refErr == nil && (scheme == core.VaFs) != (m.Margin > 0) {
		t.Fatalf("%v: margin %v", scheme, m.Margin)
	}
	for _, budget := range budgets {
		req.BudgetWatts = budget
		body, status, _ := postSolve(t, url, req)
		if status != http.StatusOK {
			var apiErr service.APIError
			if err := json.Unmarshal(body, &apiErr); err != nil {
				t.Fatalf("%v at %v W: status %d: %s", scheme, budget, status, body)
			}
			if refErr == nil && !spec.Hybrid() {
				_, refErr = m.Allocate(spec, units.Watts(budget))
			}
			if refErr == nil || apiErr.Err.Message != "solve: "+refErr.Error() {
				t.Errorf("%v at %v W: served %q, reference error %v", scheme, budget, apiErr.Err.Message, refErr)
			}
			continue
		}
		if refErr != nil {
			t.Fatalf("%v at %v W: served 200, reference failed: %v", scheme, budget, refErr)
		}
		var resp service.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		cpuBudget := budget
		if spec.Hybrid() {
			cpuBudget = resp.CPUBudgetW
		}
		cpu := allocate(t, m, spec, cpuBudget)
		feasible := cpu.Feasible
		if resp.Alpha != cpu.Alpha || resp.FreqHz != float64(cpu.Freq) || len(resp.Allocations) != len(cpu.Entries) {
			t.Fatalf("%v at %v W: served α %v at %v Hz over %d modules, Allocate α %v at %v over %d",
				scheme, budget, resp.Alpha, resp.FreqHz, len(resp.Allocations), cpu.Alpha, cpu.Freq, len(cpu.Entries))
		}
		for i, e := range cpu.Entries {
			if got := resp.Allocations[i]; got != (service.ModuleAllocation{
				Module: e.ModuleID, PModule: float64(e.Pmodule), PCPU: float64(e.Pcpu), PDram: float64(e.Pdram),
			}) {
				t.Fatalf("%v at %v W: module entry %d served %+v, Allocate %+v", scheme, budget, i, got, e)
			}
		}
		if spec.Hybrid() {
			gpu := allocate(t, gm, spec, resp.GPUBudgetW)
			feasible = feasible && gpu.Feasible
			if resp.GPUAlpha != gpu.Alpha || resp.GPUClockHz != float64(gpu.Freq) || len(resp.GPUAllocations) != len(gpu.Entries) {
				t.Fatalf("%v at %v W: served GPU α %v at %v Hz, Allocate α %v at %v", scheme, budget,
					resp.GPUAlpha, resp.GPUClockHz, gpu.Alpha, gpu.Freq)
			}
			for i, e := range gpu.Entries {
				if got := resp.GPUAllocations[i]; got != (service.GPUAllocation{Device: e.ModuleID, PowerW: float64(e.Pmodule)}) {
					t.Fatalf("%v at %v W: device entry %d served %+v, Allocate %+v", scheme, budget, i, got, e)
				}
			}
		}
		if resp.Feasible != feasible {
			t.Fatalf("%v at %v W: served feasible %v, Allocate %v", scheme, budget, resp.Feasible, feasible)
		}
	}
}

// allocate is m.Allocate at budget watts, checked to predict no more than
// the budget less the margin when feasible.
func allocate(t *testing.T, m *core.Model, spec cluster.Spec, budget float64) *core.Allocation {
	t.Helper()
	a, err := m.Allocate(spec, units.Watts(budget))
	if err != nil {
		t.Fatal(err)
	}
	if float64(a.Budget) != budget {
		t.Fatalf("Allocate echoed %v, budget %v W", a.Budget, budget)
	}
	if limit := budget * (1 - m.Margin); a.Feasible && float64(a.TotalPredicted()) > limit+1e-9 {
		t.Fatalf("%v predicts %v over budget·(1−margin) = %v W", m.Scheme, a.TotalPredicted(), limit)
	}
	return a
}
