package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/experiments"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/service"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// gridOptions is the evaluation grid's scale: the test suite's small
// options with the given HA8K module count. The workload seed moves the
// module population; the grid's shape (Table 4's feasible cells) does not
// depend on it.
func gridOptions(seed uint64, modules int) experiments.Options {
	return experiments.Options{Seed: 0x5c15 + seed, HA8KModules: modules, CabSockets: 300, VulcanBoards: 12, TellerSockets: 48}
}

// gridRep is one rep of the offline varsim path: the full evaluation grid,
// Figure 7 over it, and its rendering.
func gridRep(o experiments.Options) ([]byte, error) {
	g, err := experiments.EvaluationGrid(o)
	if err != nil {
		return nil, err
	}
	return renderFigure7(g)
}

func renderFigure7(g *experiments.EvalGrid) ([]byte, error) {
	f7, err := experiments.Figure7(g)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := experiments.RenderFigure7(&buf, f7); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gridCells lists the grid's (benchmark, Cs, scheme) cells in
// EvaluationGrid's order.
type gridCell struct {
	bench  *workload.Benchmark
	cs     units.Watts
	scheme core.Scheme
}

func gridCells(t4 experiments.Table4Result) []gridCell {
	var out []gridCell
	for _, b := range workload.Evaluated() {
		for _, cs := range t4.EvaluatedConstraints(b.Name) {
			for _, s := range core.AllSchemes() {
				out = append(out, gridCell{b, cs, s})
			}
		}
	}
	return out
}

// tracedGridRep replays EvaluationGrid through its public steps with a span
// around each: system build, install-time PVT, Table 4, the parallel cells
// and Figure 7. Its rendering must equal the untraced rep's.
func tracedGridRep(ctx context.Context, o experiments.Options, tr *recorder, id string) ([]byte, error) {
	root := tr.start("experiments.rep", 0, id)
	defer tr.end(root)
	sp := tr.start("cluster.new", root, id)
	sys, err := cluster.New(cluster.HA8K(), o.HA8KModules, o.Seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ids, err := sys.AllocateFirst(o.HA8KModules)
	if err != nil {
		return nil, err
	}
	sp = tr.start("core.pvt", root, id)
	fw, err := core.NewFrameworkWorkers(sys, nil, o.Workers)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("experiments.table4", root, id)
	t4, err := experiments.Table4(o)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	specs := gridCells(t4)
	pool := core.NewReplicaPool(fw)
	sp = tr.start("parallel.map", root, id)
	cells, err := parallel.MapCtx(ctx, o.Workers, len(specs), func(_ context.Context, i int) (experiments.GridCell, error) {
		c := tr.start("experiments.cell", sp, id)
		defer tr.end(c)
		s := specs[i]
		cfw := pool.Get()
		run, err := cfw.Run(s.bench, ids, experiments.CsForScale(s.cs, len(ids)), s.scheme)
		pool.Put(cfw)
		cell := experiments.GridCell{Bench: s.bench.Name, Cs: s.cs, Scheme: s.scheme, Err: err}
		if err == nil {
			cell.Elapsed, cell.AvgTotalPower = run.Elapsed(), run.Result.AvgTotalPower
		}
		return cell, nil
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("experiments.figure7", root, id)
	defer tr.end(sp)
	return renderFigure7(&experiments.EvalGrid{Opts: o, Sys: sys, Modules: ids, FW: fw, T4: t4, Cells: cells,
		Uncapped: make(map[string]units.Seconds)})
}

// repTimes are the timings of a run of reps, in milliseconds, one entry
// per rep: its wall time, the hostWork run just before it, the set-up
// timed before that (when asked for), and the gap the benchmark's own
// bookkeeping left before it all.
type repTimes struct {
	wall, ref, setup, gap []float64
}

// reps runs rep back to back for d (and at least three times), each after
// one run of the host reference and, with setup non-nil, one timed set-up,
// and checks every rendering equals want.
func reps(d time.Duration, want []byte, setup func() error, rep func(i int) ([]byte, error)) (repTimes, error) {
	var rt repTimes
	start := time.Now()
	last := start
	for i := 0; i < 3 || time.Since(start) < d; i++ {
		t0 := time.Now()
		if setup != nil {
			if err := setup(); err != nil {
				return rt, err
			}
			rt.setup = append(rt.setup, ms(time.Since(t0)))
		}
		t1 := time.Now()
		hostWork()
		t2 := time.Now()
		out, err := rep(i)
		if err != nil {
			return rt, err
		}
		t3 := time.Now()
		if !bytes.Equal(out, want) {
			return rt, fmt.Errorf("rep %d rendered a different Figure 7:\n%s\nwant:\n%s", i, out, want)
		}
		rt.wall = append(rt.wall, ms(t3.Sub(t2)))
		rt.ref = append(rt.ref, ms(t2.Sub(t1)))
		rt.gap = append(rt.gap, ms(t0.Sub(last)))
		last = t3
	}
	return rt, nil
}

// runGrid is the eval-grid workload: the in-process experiments path, where
// the simulated MPI runs, PMT calibration and the parallel engine dominate
// and HTTP is absent.
func runGrid(ctx context.Context, cfg runConfig, res *result) error {
	o := gridOptions(cfg.seed, cfg.gridModules)

	golden, err := os.ReadFile(filepath.Join(cfg.root, "internal", "experiments", "testdata", "figure7.golden"))
	if err != nil {
		return err
	}
	got, err := gridRep(gridOptions(0, 96))
	if err != nil {
		return err
	}
	res.check("figure7 at the golden scale equals testdata/figure7.golden", bytes.Equal(got, golden), "got:\n%s", got)

	warm, err := gridRep(o)
	if err != nil {
		return err
	}
	window := secondsDur(cfg.seconds)
	if cfg.trace {
		window /= 2
	}
	// Set-up is the once-per-system step the grid rests on: instantiating
	// the system and its install-time PVT calibration. It is timed once
	// before every rep, so the samples spread over the whole run.
	setup := func() error {
		sys, err := cluster.New(cluster.HA8K(), o.HA8KModules, o.Seed)
		if err == nil {
			_, err = core.NewFrameworkWorkers(sys, nil, o.Workers)
		}
		return err
	}
	rt, err := reps(window, warm, setup, func(int) ([]byte, error) { return gridRep(o) })
	if err != nil {
		res.check("every rep renders the same Figure 7", false, "%v", err)
		return nil
	}
	res.check("every rep renders the same Figure 7", true, "")
	wall, ref := rt.wall, rt.ref
	res.set("setup_s", median(rt.setup)/1e3, "s", len(rt.setup))
	res.Attempted += len(wall)
	// Each rep is read against the hostWork run just before it; the median
	// over those pairs is the run's ratio, so a slow spell of the host that
	// spans a few reps does not move it.
	ratio := make([]float64, len(wall))
	for i := range wall {
		ratio[i] = wall[i] / ref[i]
	}
	sorted, sortedRef, sortedRatio := sortedCopy(wall), sortedCopy(ref), sortedCopy(ratio)
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.5}, {"p90", 0.9}} {
		res.set(q.name+"_vs_ref", quantile(sortedRatio, q.p), "x", len(wall))
		res.set(q.name+"_ms", quantile(sorted, q.p), "ms", len(wall))
		res.set("reference."+q.name+"_ms", quantile(sortedRef, q.p), "ms", len(ref))
	}
	var repS, refS float64
	for i := range wall {
		repS, refS = repS+wall[i]/1e3, refS+ref[i]/1e3
	}
	res.set("throughput_vs_ref", refS/repS, "x", len(wall))
	res.set("throughput_per_s", float64(len(wall))/repS, "1/s", len(wall))
	res.set("reference.throughput_per_s", float64(len(ref))/refS, "1/s", len(ref))
	setLateness(res, rt.gap, len(wall))
	if !cfg.trace {
		return nil
	}

	tr := newRecorder()
	traced, err := reps(window, warm, nil, func(i int) ([]byte, error) {
		return tracedGridRep(ctx, o, tr, "g-"+strconv.Itoa(i))
	})
	if err != nil {
		res.check("the traced replay renders the same Figure 7", false, "%v", err)
		return nil
	}
	tracedP50 := median(traced.wall)
	res.set("trace.p50_ms", tracedP50, "ms", len(traced.wall))
	res.set("trace.overhead_pct", 100*(tracedP50-quantile(sorted, 0.5))/quantile(sorted, 0.5), "%", len(traced.wall))

	// The grid's cells as served solves, for the layers the grid bypasses
	// (the predicted no-change side of every served-path optimisation).
	t4, err := experiments.Table4(o)
	if err != nil {
		return err
	}
	caps, err := newCapacities()
	if err != nil {
		return err
	}
	perModule := float64(cluster.HA8K().Arch.TDP + cluster.HA8K().Arch.DramTDP)
	var in probeInput
	in.cfg = service.Config{Systems: []string{"HA8K"}, Modules: o.HA8KModules, Seed: o.Seed, Obs: obs.New(obs.Config{})}
	in.systems = in.cfg.Systems
	for _, c := range gridCells(t4) {
		req := service.SolveRequest{System: "HA8K", Workload: c.bench.Name, Scheme: c.scheme.String(),
			BudgetWatts: float64(experiments.CsForScale(c.cs, o.HA8KModules))}
		in.ops = append(in.ops, solveOp(-1, req))
		if len(in.hetero) < probeHetero {
			share := float64(c.cs) / 1920 / perModule
			in.hetero = append(in.hetero, solveOp(-1, service.SolveRequest{System: hybridPreset, Workload: c.bench.Name,
				Scheme: c.scheme.String(), BudgetWatts: caps.budget(hybridPreset, share)}))
		}
	}
	solveStats, pmtStats, err := runProbes(ctx, in, nil, false, tr, res)
	if err != nil {
		return err
	}
	setCacheRatios(res, solveStats, pmtStats)

	spans := tr.snapshot()
	var blocking []part
	for _, name := range []string{"cluster.new", "core.pvt", "experiments.table4", "parallel.map", "experiments.figure7"} {
		blocking = append(blocking, part{name, spanP50(spans, name, "g-")})
	}
	return finishTrace(cfg, res, spans, "g-", tracedP50, blocking)
}
