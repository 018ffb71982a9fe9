package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/service"
	"varpower/internal/service/client"
	"varpower/internal/shard"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// probeInput is what the traced run replays through each layer in process:
// the workload's own requests, against the configuration the daemon ran.
type probeInput struct {
	cfg     service.Config // the served configuration (systems, modules, seed)
	systems []string       // every preset a shard set would own
	prime   []op           // sent before timing, as the daemon was primed
	ops     []op           // the replayed stream prefix
	hetero  []op           // the hierarchical-solve sample (hybrid budgets)
}

// Replay sizes: enough calls for a stable median, few enough that a traced
// run stays well inside its time limit.
const (
	probeSolves  = 400
	probeHetero  = 100
	probeExecs   = 24
	probeCells   = 16
	probePool    = 100
	probeRepeats = 3
)

// daemonConfig is varpowerd's configuration when run with no flags.
func daemonConfig() service.Config {
	return service.Config{Obs: obs.New(obs.Config{})}
}

// newService builds a service for a probe and sends it the priming
// requests the daemon under test received.
func newService(cfg service.Config, prime []op) (*service.Server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	for i := range prime {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, newRequest(&prime[i], ""))
		if rw.Code != prime[i].wantStatus() {
			return nil, fmt.Errorf("prime %s: HTTP %d: %s", prime[i].body, rw.Code, rw.Body.Bytes())
		}
	}
	return svc, nil
}

func newRequest(o *op, reqID string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, o.path(), bytes.NewReader(o.body))
	r.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		r.Header.Set("X-Request-Id", reqID)
	}
	return r
}

// drain stops a probe service's job executors.
func drain(ctx context.Context, svc *service.Server) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	_ = svc.Drain(ctx) // the probe's jobs are not checked; only their cost is
}

// probeHandler times Server.Handler().ServeHTTP with a ResponseRecorder: the
// service layer without any transport. Requests and recorders are built
// before the clock starts, so the allocation count is the handler's own.
func probeHandler(ctx context.Context, in probeInput, tr *recorder, res *result) (service.CacheStats, service.CacheStats, error) {
	svc, err := newService(in.cfg, in.prime)
	if err != nil {
		return service.CacheStats{}, service.CacheStats{}, err
	}
	defer drain(ctx, svc)
	h := svc.Handler()
	solve0, pmt0 := svc.SolveCacheStats(), svc.PMTCacheStats()
	reqs := make([]*http.Request, len(in.ops))
	rws := make([]*httptest.ResponseRecorder, len(in.ops))
	for i := range in.ops {
		reqs[i], rws[i] = newRequest(&in.ops[i], "h-"+strconv.Itoa(i)), httptest.NewRecorder()
	}
	tr.reserve(len(in.ops))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range in.ops {
		sp := tr.start("service.handler", 0, reqs[i].Header.Get("X-Request-Id"))
		h.ServeHTTP(rws[i], reqs[i])
		tr.end(sp)
	}
	runtime.ReadMemStats(&after)
	for i, rw := range rws {
		if rw.Code != in.ops[i].wantStatus() {
			return service.CacheStats{}, service.CacheStats{}, fmt.Errorf("handler replay %s: HTTP %d: %s", in.ops[i].body, rw.Code, rw.Body.Bytes())
		}
	}
	res.set("service.handler_allocs", float64(after.Mallocs-before.Mallocs)/float64(len(in.ops)), "count", len(in.ops))
	return diffStats(svc.SolveCacheStats(), solve0), diffStats(svc.PMTCacheStats(), pmt0), nil
}

func diffStats(a, b service.CacheStats) service.CacheStats {
	return service.CacheStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Coalesced: a.Coalesced - b.Coalesced}
}

func addStats(a, b service.CacheStats) service.CacheStats {
	return service.CacheStats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Coalesced: a.Coalesced + b.Coalesced}
}

// probeTransport sends the ops over a loopback connection to an in-process
// server whose handler is wrapped in a span; the round trip's self time is
// what the transport (client and server HTTP machinery) adds.
func probeTransport(ctx context.Context, in probeInput, tr *recorder) error {
	svc, err := newService(in.cfg, in.prime)
	if err != nil {
		return err
	}
	defer drain(ctx, svc)
	h := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get("X-Varbench-Span"))
		sp := tr.start("service.handler", parent, r.Header.Get("X-Request-Id"))
		h.ServeHTTP(w, r)
		tr.end(sp)
	}))
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	for i := range in.ops {
		o := &in.ops[i]
		id := "t-" + strconv.Itoa(i)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+o.path(), bytes.NewReader(o.body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", id)
		sp := tr.start("transport.roundtrip", 0, id)
		req.Header.Set("X-Varbench-Span", strconv.Itoa(sp))
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tr.end(sp)
		if err != nil {
			return err
		}
		if resp.StatusCode != o.wantStatus() {
			return fmt.Errorf("transport replay %s: HTTP %d", o.body, resp.StatusCode)
		}
	}
	return nil
}

// inprocTransport answers a router's forwards by calling the shard's
// handler directly, recording the shard's span under the router's; the
// router span's self time is then the hop alone.
type inprocTransport struct {
	handlers map[string]http.Handler // by host
	tr       *recorder
	parent   int // the router span in progress (the replay is sequential)
}

func (t *inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process shard at %s", req.URL.Host)
	}
	rw := httptest.NewRecorder()
	sp := t.tr.start("service.handler", t.parent, req.Header.Get("X-Request-Id"))
	h.ServeHTTP(rw, req)
	t.tr.end(sp)
	return rw.Result(), nil
}

// newShardSet builds two in-process shards over cfg, splitting systems the
// way varpowerd -shard does.
func newShardSet(cfg service.Config, systems []string) (*shard.Set, map[string]*service.Server, error) {
	set, err := shard.ParseSet("a=shard-a.invalid:1,b=shard-b.invalid:1") // never dialled
	if err != nil {
		return nil, nil, err
	}
	svcs := make(map[string]*service.Server)
	for _, m := range set.Members() {
		c := cfg
		c.Systems, c.LazySystems = shard.Assign(set, m.Name, systems)
		svc, err := service.New(c)
		if err != nil {
			return nil, nil, err
		}
		svcs[strings.TrimPrefix(m.Addr, "http://")] = svc
	}
	return set, svcs, nil
}

// probeHop replays the ops through shard.Router in front of two in-process
// shards.
func probeHop(ctx context.Context, in probeInput, tr *recorder) error {
	set, svcs, err := newShardSet(in.cfg, in.systems)
	if err != nil {
		return err
	}
	rt := &inprocTransport{handlers: make(map[string]http.Handler), tr: tr}
	for host, svc := range svcs {
		defer drain(ctx, svc)
		rt.handlers[host] = svc.Handler()
	}
	router, err := shard.NewRouter(shard.RouterConfig{Set: set, NewClient: func(addr string) *client.Client {
		c := client.New(addr)
		c.HTTPClient = &http.Client{Transport: rt}
		return c
	}})
	if err != nil {
		return err
	}
	h := router.Handler()
	serve := func(o *op, id string) error {
		rw := httptest.NewRecorder()
		rt.parent = 0
		if id != "" {
			rt.parent = tr.start("shard.router", 0, id)
		}
		h.ServeHTTP(rw, newRequest(o, id))
		tr.end(rt.parent)
		if rw.Code != o.wantStatus() {
			return fmt.Errorf("routed replay %s: HTTP %d: %s", o.body, rw.Code, rw.Body.Bytes())
		}
		return nil
	}
	for i := range in.prime {
		if err := serve(&in.prime[i], ""); err != nil {
			return err
		}
	}
	for i := range in.ops {
		if err := serve(&in.ops[i], "r-"+strconv.Itoa(i)); err != nil {
			return err
		}
	}
	return nil
}

// framework is one instantiated preset with its install-time table.
type framework struct {
	fw   *core.Framework
	ids  []int
	pool *core.ReplicaPool
}

// probeCore times the model layers on the ops' own (system, benchmark,
// scheme, budget) tuples: system build and install-time calibration, PMT
// calibration, the α-solve, the hierarchical solve, replica borrow and
// return, incremental recalibration, one measured run (a simulated MPI job)
// and full pipeline cells fanned out like the evaluation grid. cells is false
// for eval-grid, whose traced reps time the grid's own cells.
func probeCore(ctx context.Context, in probeInput, recal [][]int, cells bool, tr *recorder, res *result) error {
	cfg := in.cfg
	n := cfg.Modules
	if n == 0 {
		n = servingModules
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5c15
	}
	boot := cfg.Systems
	if len(boot) == 0 {
		for _, s := range cluster.Presets() {
			boot = append(boot, s.Name)
		}
	}
	// Boot work: every eagerly served system, built and calibrated. Only
	// the last repetition's frameworks are kept.
	fws := make(map[string]*framework)
	var newMS, pvtMS []float64
	for rep := 0; rep < probeRepeats; rep++ {
		var newSum, pvtSum time.Duration
		id := "c-boot-" + strconv.Itoa(rep)
		for _, name := range boot {
			spec, err := cluster.SpecByName(name)
			if err != nil {
				return err
			}
			t0 := time.Now()
			sp := tr.start("cluster.new", 0, id)
			sys, err := cluster.New(spec, min(n, spec.TotalModules()), seed)
			tr.end(sp)
			t1 := time.Now()
			if err != nil {
				return err
			}
			sp = tr.start("core.pvt", 0, id)
			fw, err := core.NewFrameworkWorkers(sys, nil, cfg.Workers)
			tr.end(sp)
			newSum += t1.Sub(t0)
			pvtSum += time.Since(t1)
			if err != nil {
				return err
			}
			ids, err := sys.AllocateFirst(sys.NumModules())
			if err != nil {
				return err
			}
			fws[spec.Name] = &framework{fw: fw, ids: ids, pool: core.NewReplicaPool(fw)}
		}
		newMS = append(newMS, ms(newSum))
		pvtMS = append(pvtMS, ms(pvtSum))
	}
	res.set("cluster.new_ms", median(newMS), "ms", len(newMS))
	res.set("core.pvt_ms", median(pvtMS), "ms", len(pvtMS))

	// The CPU solve tuples of the stream, with one PMT per (system,
	// benchmark, scheme).
	type tuple struct {
		f      *framework
		pmt    *core.PMT
		bench  *workload.Benchmark
		scheme core.Scheme
		budget units.Watts
	}
	type pmtKey struct {
		sys, bench string
		scheme     core.Scheme
	}
	pmts := make(map[pmtKey]*core.PMT)
	var tuples []tuple
	var used []string // systems the stream solves on, first-use order
	for i := range in.ops {
		o := &in.ops[i]
		f := fws[o.system]
		if o.kind != opSolve || f == nil || len(tuples) == probeSolves {
			continue
		}
		bench, err := workload.ByName(o.solve.Workload)
		if err != nil {
			return err
		}
		scheme, err := core.SchemeByName(o.solve.Scheme)
		if err != nil {
			return err
		}
		k := pmtKey{o.system, bench.Name, scheme}
		if pmts[k] == nil {
			if !slices.Contains(used, o.system) {
				used = append(used, o.system)
			}
			for rep := 0; rep < probeRepeats; rep++ {
				sp := tr.start("core.build_pmt", 0, "c-pmt")
				pmt, err := f.fw.BuildPMT(bench, f.ids, scheme)
				tr.end(sp)
				if err != nil {
					return err
				}
				pmts[k] = pmt
			}
		}
		tuples = append(tuples, tuple{f, pmts[k], bench, scheme, units.Watts(o.solve.BudgetWatts)})
	}
	if len(tuples) == 0 {
		return fmt.Errorf("core replay: the stream has no CPU solves")
	}

	tr.reserve(len(tuples))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := make([]*core.Allocation, len(tuples))
	for i, t := range tuples {
		sp := tr.start("core.solve", 0, "c-solve")
		a, err := core.Solve(t.pmt, t.f.fw.Sys.Spec.Arch, t.budget)
		tr.end(sp)
		if err != nil {
			return err
		}
		allocs[i] = a
	}
	runtime.ReadMemStats(&after)
	res.set("core.solve_allocs", float64(after.Mallocs-before.Mallocs)/float64(len(tuples)), "count", len(tuples))

	if err := probeHeteroSolve(in.hetero, seed, cfg.Workers, tr); err != nil {
		return err
	}

	for _, name := range used {
		f := fws[name]
		f.pool.Put(f.pool.Get()) // the first borrow clones; time the steady state
		for i := 0; i < probePool; i++ {
			sp := tr.start("core.pool", 0, "c-pool")
			f.pool.Put(f.pool.Get())
			tr.end(sp)
		}
		mods := []int{0, 1}
		for _, m := range recal {
			if len(m) > 0 && m[len(m)-1] < len(f.ids) {
				mods = m
				break
			}
		}
		for rep := 0; rep < probeRepeats; rep++ {
			probe := f.pool.Get()
			sp := tr.start("core.recal", 0, "c-recal")
			_, _, err := core.RefreshPVT(probe.Sys, f.fw.PVT, mods, cfg.Workers)
			tr.end(sp)
			f.pool.Put(probe)
			if err != nil {
				return err
			}
		}
	}

	// Measured runs: the simulated MPI job behind an allocation. Schemes a
	// system cannot enforce by capping run frequency-pinned instead.
	busy0, wait0 := mpiSums()
	runs := 0
	for i, t := range tuples {
		if runs == probeExecs {
			break
		}
		// An even sample across the stream, not its first few tuples.
		if i%max(len(tuples)/probeExecs, 1) != 0 || !allocs[i].Feasible || !enforceable(t.f, t.scheme) {
			continue
		}
		fw := t.f.pool.Get()
		sp := tr.start("measure.execute", 0, "c-exec")
		_, err := fw.Execute(t.bench, t.f.ids, allocs[i], t.scheme)
		tr.end(sp)
		t.f.pool.Put(fw)
		if err != nil {
			return err
		}
		runs++
	}
	if cells {
		var sample []tuple
		for i, t := range tuples {
			if len(sample) < probeCells && i%max(len(tuples)/probeCells, 1) == 0 && enforceable(t.f, t.scheme) {
				sample = append(sample, t)
			}
		}
		root := tr.start("parallel.map", 0, "c-cells")
		_, err := parallel.MapCtx(ctx, 0, len(sample), func(_ context.Context, i int) (struct{}, error) {
			t := sample[i]
			sp := tr.start("experiments.cell", root, "c-cells")
			defer tr.end(sp)
			fw := t.f.pool.Get()
			defer t.f.pool.Put(fw)
			_, err := fw.Run(t.bench, t.f.ids, t.budget, t.scheme)
			return struct{}{}, err
		})
		tr.end(root)
		if err != nil {
			return err
		}
	}
	busy1, wait1 := mpiSums()
	if w, b := wait1-wait0, busy1-busy0; w+b > 0 {
		res.set("simmpi.wait_share", w/(w+b), "ratio", runs)
	} else {
		return fmt.Errorf("core replay: no simulated MPI time recorded")
	}
	return nil
}

// enforceable reports whether the system can enforce the scheme: capping
// schemes need RAPL, frequency schemes run anywhere.
func enforceable(f *framework, scheme core.Scheme) bool {
	return scheme.UsesFS() || f.fw.Sys.Spec.Measurement.SupportsCapping()
}

// probeHeteroSolve times HeteroFramework.SolveHetero on the hybrid preset.
func probeHeteroSolve(ops []op, seed uint64, workers int, tr *recorder) error {
	spec, err := cluster.SpecByName(hybridPreset)
	if err != nil {
		return err
	}
	sys, err := cluster.New(spec, min(servingModules, spec.TotalModules()), seed)
	if err != nil {
		return err
	}
	hf, err := core.NewHeteroFramework(sys, nil, workers)
	if err != nil {
		return err
	}
	ids, err := sys.AllocateFirst(sys.NumModules())
	if err != nil {
		return err
	}
	devs := hf.AllDevices()
	for i := range ops {
		o := &ops[i]
		bench, err := workload.ByName(o.solve.Workload)
		if err != nil {
			return err
		}
		scheme, err := core.SchemeByName(o.solve.Scheme)
		if err != nil {
			return err
		}
		sp := tr.start("core.hetero", 0, "c-hetero")
		_, _, _, err = hf.SolveHetero(bench, ids, devs, units.Watts(o.solve.BudgetWatts), scheme, core.SplitGreedy)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("hetero replay %s: %w", o.body, err)
		}
	}
	return nil
}

// mpiSums reads the simulated MPI ranks' accumulated busy and wait seconds
// from the process's telemetry registry.
func mpiSums() (busy, wait float64) {
	for _, f := range telemetry.Default().Gather() {
		for _, s := range f.Series {
			if s.Hist == nil {
				continue
			}
			switch f.Name {
			case "varpower_mpi_rank_busy_seconds":
				busy += s.Hist.Sum
			case "varpower_mpi_rank_wait_seconds":
				wait += s.Hist.Sum
			}
		}
	}
	return busy, wait
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runProbes replays the input through every layer in turn and returns the
// handler replay's cache activity.
func runProbes(ctx context.Context, in probeInput, recal [][]int, cells bool, tr *recorder, res *result) (solve, pmt service.CacheStats, err error) {
	if solve, pmt, err = probeHandler(ctx, in, tr, res); err != nil {
		return
	}
	if err = probeTransport(ctx, in, tr); err != nil {
		return
	}
	if err = probeHop(ctx, in, tr); err != nil {
		return
	}
	err = probeCore(ctx, in, recal, cells, tr, res)
	return
}
