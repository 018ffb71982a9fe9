// Package varpower_test holds the reproduction benchmarks: one benchmark
// per table and figure of the paper (run at the paper's scales), plus
// ablations for the design choices called out in DESIGN.md §5.
//
// Each benchmark executes the corresponding generator end to end; custom
// metrics surface the headline quantity the paper reports for that
// artifact (e.g. speedup-avg for Figure 7). Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// and print the full tables with:
//
//	go run ./cmd/varsim -experiment all
package varpower_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/experiments"
	"varpower/internal/hw/rapl"
	"varpower/internal/overprov"
	"varpower/internal/sched"
	"varpower/internal/service"
	"varpower/internal/service/client"
	"varpower/internal/simmpi"
	"varpower/internal/units"
	"varpower/internal/workload"
	"varpower/internal/xrand"
)

// paperScale is the full evaluation size; the zero value of every other
// field defaults to the paper's numbers too.
var paperScale = experiments.Options{}

// --- Tables -----------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderTable2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t4, err := experiments.Table4(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(t4.Rows) != 6 {
			b.Fatal("unexpected Table 4 shape")
		}
	}
}

// --- Analysis figures --------------------------------------------------------

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure1(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].MaxPowerIncreasePct, "cab-power-var-%")
		b.ReportMetric(series[2].MaxSlowdownPct, "teller-perf-var-%")
	}
}

func BenchmarkFigure2i(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2i(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].Module.Mean, "dgemm-module-W")
		b.ReportMetric(res[0].Dram.Vp, "dgemm-dram-Vp")
	}
}

func BenchmarkFigure2ii(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2Sweep(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		// Worst-case frequency variation at the tightest DGEMM cap.
		last := res[0].Clusters[len(res[0].Clusters)-1]
		b.ReportMetric(last.Vf, "dgemm-tightest-Vf")
	}
}

func BenchmarkFigure2iii(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2Sweep(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		last := res[0].Clusters[len(res[0].Clusters)-1]
		b.ReportMetric(last.Vt, "dgemm-tightest-Vt")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		tight := res.Levels[len(res.Levels)-1]
		b.ReportMetric(tight.MaxSync, "mhd-max-sync-s")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].CPUFit.R2, "dgemm-cpu-R2")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Bench == "NPB-BT" {
				b.ReportMetric(row.MeanErrMax*100, "bt-calib-err-%")
			}
		}
	}
}

// --- Evaluation figures (share one paper-scale grid) --------------------------

var (
	gridOnce sync.Once
	gridVal  *experiments.EvalGrid
	gridErr  error
)

func paperGrid(b *testing.B) *experiments.EvalGrid {
	b.Helper()
	gridOnce.Do(func() {
		gridVal, gridErr = experiments.EvaluationGrid(paperScale)
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridVal
}

func BenchmarkFigure7(b *testing.B) {
	g := paperGrid(b)
	for i := 0; i < b.N; i++ {
		f7, err := experiments.Figure7(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f7.Avg[core.VaFs], "vafs-avg-speedup")
		b.ReportMetric(f7.Max[core.VaFs], "vafs-max-speedup")
		b.ReportMetric(f7.Avg[core.VaPc], "vapc-avg-speedup")
	}
}

func BenchmarkFigure8(b *testing.B) {
	g := paperGrid(b)
	for i := 0; i < b.N; i++ {
		f8, err := experiments.Figure8(g)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range f8.PowerPerf {
			if s.Bench == "MHD" && len(s.Levels) > 0 {
				b.ReportMetric(s.Levels[len(s.Levels)-1].Vt, "mhd-vafs-Vt")
			}
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	g := paperGrid(b)
	for i := 0; i < b.N; i++ {
		f9, err := experiments.Figure9(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(f9.Violations)), "budget-violations")
	}
}

// BenchmarkParallelSpeedup runs the Figure-7 pipeline (PVT generation,
// Table 4, the full scheme grid, the speedup summary) serially and with the
// parallel engine at full width. Both sub-benchmarks produce byte-identical
// artifacts — the parallel engine exists purely for wall-clock speed, so
// comparing their ns/op is the speedup measurement. On a multi-core runner
// workers-max should approach the core count for the grid-dominated phase;
// on a single core the two are equivalent.
func BenchmarkParallelSpeedup(b *testing.B) {
	smallScale := experiments.Options{
		HA8KModules: 192, CabSockets: 300, VulcanBoards: 12, TellerSockets: 48,
	}
	for _, w := range []struct {
		name    string
		workers int
	}{
		{"workers-1", 1},
		{"workers-max", 0}, // 0 selects GOMAXPROCS
	} {
		b.Run(w.name, func(b *testing.B) {
			o := smallScale
			o.Workers = w.workers
			for i := 0; i < b.N; i++ {
				g, err := experiments.EvaluationGrid(o)
				if err != nil {
					b.Fatal(err)
				}
				f7, err := experiments.Figure7(g)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(f7.Avg[core.VaFs], "vafs-avg-speedup")
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

// ablationSpeedup measures the VaFs-over-Naive speedup for NPB-BT at the
// paper's tightest constraint on a given system.
func ablationSpeedup(b *testing.B, sys *cluster.System, n int) float64 {
	b.Helper()
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.NewFramework(sys, nil)
	if err != nil {
		b.Fatal(err)
	}
	bench := workload.BT()
	budget := units.Watts(50 * float64(n))
	naive, err := fw.Run(bench, ids, budget, core.Naive)
	if err != nil {
		b.Fatal(err)
	}
	vafs, err := fw.Run(bench, ids, budget, core.VaFs)
	if err != nil {
		b.Fatal(err)
	}
	return float64(naive.Elapsed()) / float64(vafs.Elapsed())
}

// BenchmarkAblationCliff varies the sub-fmin duty-cycle exponent. The
// tight-budget speedups hinge on it: a proportional cliff (exponent 1)
// halves the headline result, a severe one (3.5) overshoots it.
func BenchmarkAblationCliff(b *testing.B) {
	const n = 256
	for _, exp := range []float64{1.0, 2.0, 2.7, 3.5} {
		b.Run(floatName("exp", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := cluster.HA8K()
				spec.Arch.CliffExponent = exp
				sys := cluster.MustNew(spec, n, 0x5c15)
				b.ReportMetric(ablationSpeedup(b, sys, n), "bt96-vafs-speedup")
			}
		})
	}
}

// BenchmarkAblationPVT compares PVT microbenchmark choices (Section 6.1
// discusses using several PVTs): *STREAM (the paper's pick), *DGEMM (a
// dynamic-power-heavy probe) and NPB-EP, scored by NPB-BT calibration
// error.
func BenchmarkAblationPVT(b *testing.B) {
	const n = 256
	for _, micro := range []*workload.Benchmark{workload.StarSTREAM(), workload.DGEMM(), workload.EP()} {
		b.Run(micro.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
				pvt, err := core.GeneratePVTWorkers(sys, micro, 0)
				if err != nil {
					b.Fatal(err)
				}
				ids, _ := sys.AllocateFirst(n)
				bench := workload.BT()
				pair, err := core.RunTestPair(sys, bench, ids[0])
				if err != nil {
					b.Fatal(err)
				}
				pred, err := core.Calibrate(pvt, pair, bench, ids)
				if err != nil {
					b.Fatal(err)
				}
				oracle, err := core.OraclePMTWorkers(sys, bench, ids, 0)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for j := range pred.Entries {
					p := float64(pred.Entries[j].ModuleMax())
					a := float64(oracle.Entries[j].ModuleMax())
					d := (p - a) / a
					if d < 0 {
						d = -d
					}
					sum += d
				}
				b.ReportMetric(sum/float64(n)*100, "bt-calib-err-%")
			}
		})
	}
}

// BenchmarkAblationPstates varies the cpufreq ladder granularity: FS loses
// performance to downward quantisation when P-states are coarse.
func BenchmarkAblationPstates(b *testing.B) {
	const n = 256
	for _, stepMHz := range []float64{25, 100, 300} {
		b.Run(floatName("step", stepMHz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := cluster.HA8K()
				spec.Arch.PStateStep = units.MHz(stepMHz)
				sys := cluster.MustNew(spec, n, 0x5c15)
				ids, _ := sys.AllocateFirst(n)
				fw, err := core.NewFramework(sys, nil)
				if err != nil {
					b.Fatal(err)
				}
				run, err := fw.Run(workload.MHD(), ids, units.Watts(70*n), core.VaFs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(run.Elapsed()), "mhd70-elapsed-s")
			}
		})
	}
}

// BenchmarkAblationJitter removes RAPL's control imperfection: with a
// perfect controller, PC closes most of its gap to FS — evidence that the
// paper's VaFs-over-VaPc advantage comes from RAPL's dynamic behaviour.
func BenchmarkAblationJitter(b *testing.B) {
	const n = 256
	for _, c := range []struct {
		name    string
		control rapl.ControlModel
	}{
		{"default-control", rapl.DefaultControl},
		{"perfect-control", rapl.PerfectControl},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
				sys.SetControlModel(c.control)
				ids, _ := sys.AllocateFirst(n)
				fw, err := core.NewFramework(sys, nil)
				if err != nil {
					b.Fatal(err)
				}
				budget := units.Watts(70 * n)
				pc, err := fw.Run(workload.MHD(), ids, budget, core.VaPc)
				if err != nil {
					b.Fatal(err)
				}
				fs, err := fw.Run(workload.MHD(), ids, budget, core.VaFs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(pc.Elapsed())/float64(fs.Elapsed()), "pc-over-fs-time")
			}
		})
	}
}

// --- Extensions (the paper's Section 6.1 / Section 7 directions) --------------

// BenchmarkExtensionDynamic compares static VaPc against the epoch-feedback
// dynamic budgeter on the worst-calibrated benchmark: the dynamic runtime
// corrects the ~8% model error after its first epoch.
func BenchmarkExtensionDynamic(b *testing.B) {
	const n = 256
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	ids, _ := sys.AllocateFirst(n)
	fw, err := core.NewFramework(sys, nil)
	if err != nil {
		b.Fatal(err)
	}
	budget := units.Watts(70 * n)
	for i := 0; i < b.N; i++ {
		static, err := fw.Run(workload.BT(), ids, budget, core.VaPc)
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := fw.RunDynamic(workload.BT(), ids, budget, 4, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(static.Elapsed())/float64(dyn.Elapsed), "dyn-speedup-vs-static")
		b.ReportMetric(dyn.Epochs[0].ModelError*100, "epoch0-model-err-%")
		b.ReportMetric(dyn.Epochs[len(dyn.Epochs)-1].ModelError*100, "final-model-err-%")
	}
}

// BenchmarkExtensionScheduler compares the scheduler's power partitioning
// policies on a mixed three-job batch at tight system power.
func BenchmarkExtensionScheduler(b *testing.B) {
	const n = 192
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	s, err := sched.NewOnSystem(sys)
	if err != nil {
		b.Fatal(err)
	}
	jobs := []sched.Job{
		{Name: "mhd", Bench: workload.MHD(), Modules: 64},
		{Name: "bt", Bench: workload.BT(), Modules: 64},
		{Name: "dgemm", Bench: workload.DGEMM(), Modules: 64},
	}
	cs := units.Watts(65 * n)
	for i := 0; i < b.N; i++ {
		eq, err := s.Run(jobs, sched.Config{SystemPower: cs, Policy: sched.SplitEqualPerModule, Scheme: core.VaFs})
		if err != nil {
			b.Fatal(err)
		}
		gl, err := s.Run(jobs, sched.Config{SystemPower: cs, Policy: sched.SplitGlobalAlpha, Scheme: core.VaFs})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(eq.Throughput(), "equal-split-jobs/h")
		b.ReportMetric(gl.Throughput(), "global-alpha-jobs/h")
	}
}

// BenchmarkExtensionPlacement compares module placement policies: a job
// given the PVT-efficient half of the machine reaches a higher α than one
// placed first-fit under the same budget.
func BenchmarkExtensionPlacement(b *testing.B) {
	const n = 256
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	s, err := sched.NewOnSystem(sys)
	if err != nil {
		b.Fatal(err)
	}
	job := []sched.Job{{Name: "mhd", Bench: workload.MHD(), Modules: n / 2}}
	cfg := sched.Config{
		SystemPower: units.Watts(70 * n / 2),
		Policy:      sched.SplitEqualPerModule,
		Scheme:      core.VaFsOr,
	}
	for i := 0; i < b.N; i++ {
		first, err := s.Run(job, cfg)
		if err != nil {
			b.Fatal(err)
		}
		effCfg := cfg
		effCfg.Alloc = sched.AllocEfficient
		eff, err := s.Run(job, effCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(first.Jobs[0].Run.Alloc.Alpha, "alpha-first-fit")
		b.ReportMetric(eff.Jobs[0].Run.Alloc.Alpha, "alpha-efficient")
		b.ReportMetric(float64(first.Jobs[0].Run.Elapsed())/float64(eff.Jobs[0].Run.Elapsed()), "placement-speedup")
	}
}

// BenchmarkExtensionOverprovisioning sweeps the module count for a fixed
// application budget — the hardware-overprovisioning question the paper's
// related work poses. On this architecture the frequency-sensitive codes
// favour fully powering fewer modules.
func BenchmarkExtensionOverprovisioning(b *testing.B) {
	sys := cluster.MustNew(cluster.HA8K(), 192, 0x5c15)
	fw, err := core.NewFramework(sys, nil)
	if err != nil {
		b.Fatal(err)
	}
	budget := units.Watts(96 * 90)
	counts := []int{64, 96, 128, 160, 192}
	for i := 0; i < b.N; i++ {
		res, err := overprov.Analyze(fw, workload.DGEMM(), budget, 96, counts, core.VaFsOr)
		if err != nil {
			b.Fatal(err)
		}
		best := res.Points[res.Best]
		b.ReportMetric(float64(best.Modules), "optimal-modules")
		b.ReportMetric(float64(best.Elapsed), "best-elapsed-s")
	}
}

// --- Serving (internal/service) -----------------------------------------------

// BenchmarkServeSolve measures the varpowerd serving hot path through the
// full HTTP stack: POST /v1/solve answered from the rendered-bytes cache
// ("hot") versus a unique-seed request that instantiates and calibrates a
// fresh system replica each time ("cold"). The hot/cold ns_op ratio in
// BENCH.json is the cache's tracked throughput win.
func BenchmarkServeSolve(b *testing.B) {
	srv, err := service.New(service.Config{Systems: []string{"HA8K"}, Modules: 32, Seed: 0x5c15})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()
	req := service.SolveRequest{System: "HA8K", Workload: "dgemm", Scheme: "vapc", BudgetWatts: 2400}

	b.Run("hot", func(b *testing.B) {
		// Warm the cache, and with it the process state a first request on
		// a given P would otherwise allocate inside the timed window: the
		// per-P sync.Pool entries (net/http's server bufio.Writer, io's
		// body-draining buffer), the runtime's extra Ms, and first-use
		// GODEBUG registration. Four concurrent clients reach both Ps of a
		// 2-vCPU runner, where a single request warms only the one it ran
		// on; every allocation the timed request makes stays measured.
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, _, err := c.Solve(ctx, req); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := req
			r.Seed = 1<<40 + uint64(i) // unique seed: full replica build + calibration
			if _, _, err := c.Solve(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHandlerSolve measures the service layer alone: POST /v1/solve
// through Server.Handler().ServeHTTP into an httptest.ResponseRecorder, no
// transport, on HA8K at the daemon's 192 modules. "hot" answers one primed
// key from the rendered-bytes cache; "miss" sends a budget no iteration has
// sent, so each iteration runs the α-solve against the warm PMT cache and
// renders the body. Request bodies are built before the timer and the
// request, its body reader and the recorder are reused, so allocs/op is the
// handler's own.
func BenchmarkHandlerSolve(b *testing.B) {
	srv, err := service.New(service.Config{Systems: []string{"HA8K"}, Modules: 192, Seed: 0x5c15})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Drain(context.Background()) }()
	h := srv.Handler()
	body := new(rewindBody)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", body)
	rec := httptest.NewRecorder()
	serve := func(payload []byte, want service.Disposition) {
		body.Reset(payload)
		rec.Body.Reset()
		delete(rec.HeaderMap, "X-Varpower-Cache")
		h.ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Varpower-Cache"); got != string(want) {
			b.Fatalf("disposition %q, want %q: %s", got, want, rec.Body.Bytes())
		}
	}
	// Every request's budget is one no earlier request sent, across all
	// runs of both sub-benchmarks.
	var sent int
	payload := func() []byte {
		sent++
		p := []byte(`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget_watts":`)
		p = strconv.AppendFloat(p, 20000+float64(sent)/8, 'f', -1, 64)
		return append(p, '}')
	}

	b.Run("hot", func(b *testing.B) {
		key := payload()
		serve(key, service.DispMiss)
		serve(key, service.DispHit) // warm-up: one-time allocations stay out of allocs/op
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(key, service.DispHit)
		}
	})
	b.Run("miss", func(b *testing.B) {
		keys := make([][]byte, b.N+1)
		for i := range keys {
			keys[i] = payload()
		}
		serve(keys[b.N], service.DispMiss) // warm-up, and the PMT cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(keys[i], service.DispMiss)
		}
	})
}

// rewindBody is a request body the benchmark loop re-arms in place, so the
// loop allocates nothing of its own.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// BenchmarkSnapshotRestore measures the crash-safety hot paths: writing a
// primed system's durable snapshot ("snapshot") and booting a server warm
// from it ("restore"). The restore path is the failover-latency story — a
// secondary adopting a dead primary's state runs exactly this code — so its
// ns/op and allocs/op are tracked in BENCH.json and capped by
// benchgate.json.
func BenchmarkSnapshotRestore(b *testing.B) {
	dir := b.TempDir()
	cfg := service.Config{Systems: []string{"HA8K"}, Modules: 32, Seed: 0x5c15, StateDir: dir}
	srv, err := service.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()
	if _, err := c.Recalibrate(ctx, service.RecalibrateRequest{System: "HA8K", Modules: []int{0, 1}}); err != nil {
		b.Fatal(err)
	}
	req := service.SolveRequest{System: "HA8K", Workload: "dgemm", Scheme: "vapc", BudgetWatts: 2400}
	if _, _, err := c.Solve(ctx, req); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Snapshot(); err != nil {
		b.Fatal(err)
	}

	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			warm, err := service.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rep := warm.RestoreReport()
			if len(rep) != 1 || rep[0].Outcome != "warm" {
				b.Fatalf("restore outcome %+v, want warm", rep)
			}
		}
	})
}

// --- Attribution (internal/attrib) ---------------------------------------------

// BenchmarkAttribSample measures the attribution collector's per-sample hot
// path — one residual pushed into a module's drift ring — which runs at the
// collector's sampling rate on every live run and must not allocate in
// steady state (benchgate.json caps it at 2 allocs/op).
func BenchmarkAttribSample(b *testing.B) {
	c := attrib.New(attrib.Config{})
	const modules = 64
	for m := 0; m < modules; m++ {
		c.Sample(m, 1.0) // pre-size every ring
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sample(i%modules, 1.0)
	}
}

// BenchmarkHeteroSolve measures the hierarchical CPU+GPU budgeting pipeline
// — PMT construction for both device classes, the class-budget split and
// the two per-class α-solves — on a 64-module slice of the HA8K-hybrid
// preset (128 GPUs). This is the per-job control-plane cost a resource
// manager pays at submission on a heterogeneous machine: varpowerd's
// cache-miss path for a hybrid system. Tables are built once, outside the
// timer, exactly as the daemon holds them.
func BenchmarkHeteroSolve(b *testing.B) {
	const modules = 64
	sys := cluster.MustNew(cluster.HA8KHybrid(), modules, 0x5c15)
	hf, err := core.NewHeteroFramework(sys, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		b.Fatal(err)
	}
	devs := hf.AllDevices()
	bench := workload.MHD()
	budget := units.Watts(70*modules + 165*len(devs))
	solve := func() {
		alloc, _, _, err := hf.SolveHetero(bench, ids, devs, budget, core.VaFs, core.SplitGreedy)
		if err != nil {
			b.Fatal(err)
		}
		if !alloc.CPU.Feasible || !alloc.GPU.Feasible {
			b.Fatal("benchmark budget became infeasible")
		}
	}
	solve() // warm-up: one-time allocations stay out of allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// BenchmarkSolveKernel measures the α-kernel layer alone: core.Solve on a
// calibrated 1,920-module PMT (the paper-scale HA8K job), cycling through an
// interior budget, a clamped best-effort one (0.95·ΣMin) and a slack one
// (1.2·ΣMax) so every branch of Equation 6 is timed. The Allocation and its
// entries are the only allocations (benchgate.json caps it at 2 allocs/op).
func BenchmarkSolveKernel(b *testing.B) {
	const modules = 1920
	sys := cluster.MustNew(cluster.HA8K(), modules, 0x5c15)
	fw, err := core.NewFramework(sys, nil)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		b.Fatal(err)
	}
	pmt, err := fw.BuildPMT(workload.MHD(), ids, core.VaPc)
	if err != nil {
		b.Fatal(err)
	}
	var sumMin, sumMax units.Watts
	for _, e := range pmt.Entries {
		sumMin += e.ModuleMin()
		sumMax += e.ModuleMax()
	}
	budgets := []units.Watts{(sumMin + sumMax) / 2, 0.95 * sumMin, 1.2 * sumMax}
	arch := sys.Spec.Arch
	solve := func(i int) {
		alloc, err := core.Solve(pmt, arch, budgets[i%len(budgets)])
		if err != nil || !alloc.Feasible {
			b.Fatalf("solve at %v infeasible: %v", budgets[i%len(budgets)], err)
		}
	}
	solve(0) // warm-up: one-time allocations stay out of allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(i)
	}
}

func floatName(prefix string, v float64) string {
	s := prefix + "-"
	whole := int(v)
	frac := int(v*10+0.5) - whole*10
	s += itoa(whole)
	if frac != 0 {
		s += "." + itoa(frac)
	}
	return s
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkDESRun measures the simmpi DES layer inside one application run:
// a capped 480-module MHD Framework.RunModel of a VaPc model built once,
// at the interior budget halfway between ΣMin and ΣMax, at workers 1. Each
// iteration solves, resolves the caps, runs the 400-round halo-exchange DES
// and accounts the energy counters, as every grid cell's final run does.
func BenchmarkDESRun(b *testing.B) {
	const modules = 480
	sys := cluster.MustNew(cluster.HA8K(), modules, 0x5c15)
	fw, err := core.NewFrameworkWorkers(sys, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		b.Fatal(err)
	}
	m, err := fw.BuildModel(workload.MHD(), ids, core.VaPc)
	if err != nil {
		b.Fatal(err)
	}
	var sumMin, sumMax units.Watts
	for _, e := range m.PMT.Entries {
		sumMin += e.ModuleMin()
		sumMax += e.ModuleMax()
	}
	budget := (sumMin + sumMax) / 2
	run := func() {
		if _, err := fw.RunModel(m, budget); err != nil {
			b.Fatalf("interior budget: %v", err)
		}
	}
	run() // warm-up: one-time allocations stay out of allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkDESKernel measures the simmpi DES alone: simmpi.RunFaulty of
// the 480-rank MHD program, healthy and unprobed, under a fixed model
// shaped like measure's: cycles over the rank's frequency plus traffic
// over the bandwidth at that frequency, times the rank's run-to-run noise.
// Each iteration resolves the program's two tables and plays its 400
// rounds; BenchmarkDESRun wraps the same kind of run in the α-solve, the
// operating-point resolve and the energy accounting.
func BenchmarkDESKernel(b *testing.B) {
	const ranks = 480
	arch := cluster.HA8K().Arch
	prog, err := workload.MHD().Program(ranks, 0x5c15)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewKeyed(0x5c15, xrand.HashString("des-kernel"))
	freq := make([]units.Hertz, ranks)
	noise := make([]float64, ranks)
	for rank := range freq {
		freq[rank] = units.Hertz(rng.Uniform(float64(arch.FMin), float64(arch.FTurbo)))
		noise[rank] = 1 + rng.TruncNormal(0, 0.001, -3, 3)
	}
	model := simmpi.Model(func(rank int, cycles, bytes float64) units.Seconds {
		f := freq[rank]
		t := cycles / float64(f)
		if bytes > 0 {
			t += bytes / arch.MemBWAt(f)
		}
		return units.Seconds(t * noise[rank])
	})
	run := func() {
		if _, err := simmpi.RunFaulty(prog, ranks, model, simmpi.DefaultNetwork, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm-up, as in BenchmarkDESRun
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCalibratePMT measures the PMT calibration layer: the two
// single-module MHD test runs (fmax and fmin) and the PVT-scaled prediction
// of all 480 modules' four parameters from them.
func BenchmarkCalibratePMT(b *testing.B) {
	const modules = 480
	sys := cluster.MustNew(cluster.HA8K(), modules, 0x5c15)
	fw, err := core.NewFrameworkWorkers(sys, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		b.Fatal(err)
	}
	bench := workload.MHD()
	calibrate := func() {
		pair, err := core.RunTestPair(sys, bench, ids[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Calibrate(fw.PVT, pair, bench, ids); err != nil {
			b.Fatal(err)
		}
	}
	calibrate() // warm-up: one-time allocations stay out of allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calibrate()
	}
}

// BenchmarkPVTSweep measures the install-time calibration layer: the PVT
// sweep's two microbenchmark test runs on every module of a prebuilt
// 480-module HA8K system, in chunks of members that each publish their
// test runs' telemetry once, and the population normalisation. It sweeps
// serially, so its allocation count is the code's: at GOMAXPROCS workers
// the fan-out's goroutines, OS threads and wait queues also allocate inside
// the runtime, by scheduling luck (+0 to +7 per one-iteration run, whatever
// the warm-up). Every width runs the same chunks, tester and batches; the
// parallel sweep is eval-grid's setup_s (without cluster.New).
func BenchmarkPVTSweep(b *testing.B) {
	sys := cluster.MustNew(cluster.HA8K(), 480, 0x5c15)
	sweep := func() {
		if _, err := core.GeneratePVTWorkers(sys, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
	sweep() // warm-up: one-time allocations stay out of allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
