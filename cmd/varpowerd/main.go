// Command varpowerd serves varpower's power-management control plane: the
// daemon instantiates the configured system presets at startup (install-time
// PVT calibration included), then answers budgeting questions over a JSON
// HTTP API — the per-job α-solve a resource manager calls at submission
// time, plus full simulated runs through a bounded job queue.
//
// Usage:
//
//	varpowerd [-addr HOST:PORT] [-addr-file FILE] [-systems a,b,...]
//	          [-modules N] [-seed S] [-workers W] [-queue N]
//	          [-job-workers N] [-cache N] [-selftest]
//	          [-trace on|off] [-trace-ring N] [-log-level LVL]
//	          [-metrics FILE] [-telemetry] [-quiet] [-v]
//	          [-state-dir DIR] [-snapshot-interval D]
//	          [-shard NAME -shard-set SET | -route-to SET]
//
// -systems accepts any cluster preset name or alias, including the hybrid
// CPU+GPU presets (HA8K-hybrid/"hybrid", Summit-lite/"summit"); the default
// configuration registers the hybrid presets lazily, so they calibrate on
// first request. Solves against a hybrid system run the hierarchical
// pipeline — the budget is split across the device classes by the request's
// "splitter" policy (uniform, proportional, efficiency, greedy; default
// greedy), then each class α-solves — and the response adds the class
// budgets, the GPU α, the locked SM clock and per-device power limits.
// GPU control activity shows up in /v1/metrics as the varpower_gpu_*
// telemetry families.
//
// With -state-dir the daemon restores its systems from durable snapshots
// at boot (skipping PVT calibration on a warm restore), snapshots on
// drain, on POST /v1/snapshot and every -snapshot-interval. With -shard
// the process serves only the systems it primarily owns inside -shard-set
// (rendezvous hashing), registering its secondary systems lazily; with
// -route-to it runs as a router instead, proxying the control plane to
// the owning shard with circuit-breaker failover to the designated
// secondary (see DESIGN.md §14).
//
// Endpoints (see internal/service):
//
//	GET  /healthz        liveness, uptime, queue depth
//	GET  /v1/systems     loaded presets
//	GET  /v1/pvt/{sys}   a system's Power Variation Table
//	POST /v1/solve       budget solve (cached, coalesced)
//	POST /v1/jobs        enqueue a simulated run (429 + Retry-After when full)
//	GET  /v1/jobs/{id}   job status / result
//	GET  /v1/attrib/{sys} live attribution + drift report
//	POST /v1/recalibrate incremental PVT refresh of drifting modules
//	GET  /v1/traces      retained request traces (tail-sampled ring)
//	GET  /v1/traces/{id} one trace (?format=perfetto for the Chrome viewer)
//	GET  /v1/slo         per-route SLO burn-rate report
//	GET  /v1/metrics     telemetry registry (?format=prom|json|csv|openmetrics)
//	/debug/...           pprof and expvar
//
// Every response carries a W3C traceparent and an X-Request-ID header (the
// incoming values are adopted when present), so a resource manager's own
// trace continues through the daemon; -log-level enables structured JSON
// request logs on stderr carrying the same trace_id. -trace=off disables the
// whole request-observability layer — response bodies are byte-identical
// either way, the trace context travels only in headers and side endpoints.
//
// On SIGTERM or SIGINT the daemon drains gracefully: the listener stops
// accepting and in-flight responses finish, queued and running jobs run to
// completion (bounded by -drain-timeout), telemetry flushes (-metrics), and
// the process exits 0.
//
// -selftest starts an in-process instance, runs the load generator against
// it (cold unique-seed solves, then a repeated-key hammer from N
// goroutines), prints both phases' throughput and the cache speedup, and
// exits nonzero if the speedup is below 5× — the serving layer's acceptance
// gate. With tracing on it also gates on observability: the hot phase must
// have left a cache-hit span in the trace ring and the solve route's
// availability burn must be zero. It then boots a second in-process instance
// over a *drifting* cluster (one module's cap enforcement holding 1.2× the
// programmed limit) and drives the continuous-observability loop through the
// public API (loadgen.DriftCheck): jobs feed the attribution collector, GET
// /v1/attrib must flag the drifter, POST /v1/recalibrate must splice a
// refreshed PVT, and the next /v1/solve must be an uncached answer with a
// different α. The drifting instance runs under a deliberately impossible
// latency objective, so its /v1/slo must report *nonzero* burn — proving the
// burn-rate math fires under a fault ladder, not just stays quiet when
// healthy.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"varpower/internal/cliutil"
	"varpower/internal/cluster"
	"varpower/internal/faults"
	reqobs "varpower/internal/obs"
	"varpower/internal/service"
	"varpower/internal/service/client"
	"varpower/internal/service/loadgen"
	"varpower/internal/shard"
	"varpower/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address (use :0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr :0)")
		systems      = flag.String("systems", "", "comma-separated system presets to load (default: all; see /v1/systems)")
		modules      = flag.Int("modules", 0, "modules instantiated per system (0 = 192, clamped to each preset's total)")
		seed         = flag.Uint64("seed", 0, "serving seed for the owned systems (0 = 0x5c15)")
		workers      = flag.Int("workers", 0, "per-module fan-out width for calibration (0 = GOMAXPROCS)")
		queueSize    = flag.Int("queue", 0, "job queue capacity (0 = 64); a full queue answers 429 + Retry-After")
		jobWorkers   = flag.Int("job-workers", 0, "job executor pool width (0 = 2)")
		cacheSize    = flag.Int("cache", 0, "solve/PMT cache capacity in entries (0 = 4096)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound for in-flight requests and queued jobs")
		selftest     = flag.Bool("selftest", false, "start an in-process instance, run the load generator against it, and exit (nonzero unless cache speedup >= 5x)")
		selfN        = flag.Int("selftest-requests", 2000, "hot-phase request count for -selftest")
		selfC        = flag.Int("selftest-clients", 8, "client goroutines for -selftest")
		traceMode    = flag.String("trace", "on", "request tracing + SLO monitoring: on or off (off drops the traces, the trace ring and the SLO monitor at zero per-request allocation; phase metrics stay on and response bodies are identical either way)")
		traceRing    = flag.Int("trace-ring", 0, "retained request-trace ring capacity, half reserved for slow/error traces (0 = 256)")
		stateDir     = flag.String("state-dir", "", "durable snapshot directory: restore owned systems from it at boot, snapshot on drain and on POST /v1/snapshot (shards sharing a fleet share this directory)")
		snapEvery    = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence when -state-dir is set (0 disables the loop; drain still snapshots)")
		shardName    = flag.String("shard", "", "this process's shard name inside -shard-set: serve only the systems this shard primarily owns, registering secondary systems lazily")
		shardSet     = flag.String("shard-set", "", "the fleet: comma-separated name=addr members (same string on every shard and router)")
		routeTo      = flag.String("route-to", "", "run as a router over this shard set (name=addr,...) instead of serving systems: proxy /v1/* to owners with breaker-guarded failover")
		obs          = cliutil.AddFlags(flag.CommandLine)
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "varpowerd:", err)
		os.Exit(1)
	}
	if err := obs.Start("varpowerd"); err != nil {
		fail(err)
	}

	if *routeTo != "" {
		if err := runRouter(*addr, *addrFile, *routeTo, *traceMode, *traceRing, obs); err != nil {
			fail(err)
		}
		if err := obs.Close(); err != nil {
			fail(err)
		}
		return
	}

	var observer *reqobs.Observer
	switch *traceMode {
	case "on", "":
		observer = reqobs.New(reqobs.Config{
			RingSize: *traceRing,
			Logger:   obs.Logger(),
		})
	case "off":
		// nil Observer: the service's instrumentation collapses to the
		// pre-observability path (no spans, no ring, no SLO accounting).
	default:
		fail(fmt.Errorf("-trace must be on or off, got %q", *traceMode))
	}

	cfg := service.Config{
		Modules:    *modules,
		Seed:       *seed,
		Workers:    *workers,
		QueueSize:  *queueSize,
		JobWorkers: *jobWorkers,
		CacheSize:  *cacheSize,
		// -faults (cliutil) installs the plan on every owned system, so a
		// drifting cluster can be served and repaired through /v1/attrib +
		// /v1/recalibrate without the -selftest harness.
		Faults:           obs.FaultPlan(),
		Obs:              observer,
		StateDir:         *stateDir,
		SnapshotInterval: *snapEvery,
	}
	if *stateDir == "" {
		cfg.SnapshotInterval = 0
	}
	if *systems != "" {
		for _, s := range strings.Split(*systems, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.Systems = append(cfg.Systems, s)
			}
		}
	} else if *selftest {
		// The self-test only hammers one preset; skip calibrating the rest.
		cfg.Systems = []string{"HA8K"}
	}
	if *shardName != "" {
		if *shardSet == "" {
			fail(fmt.Errorf("-shard requires -shard-set"))
		}
		set, err := shard.ParseSet(*shardSet)
		if err != nil {
			fail(err)
		}
		all := cfg.Systems
		if len(all) == 0 {
			for _, s := range cluster.Presets() {
				all = append(all, s.Name)
			}
		}
		eager, lazy := shard.Assign(set, *shardName, all)
		cfg.Systems, cfg.LazySystems = eager, lazy
		obs.Infof("shard %q: primary for %v, secondary for %v", *shardName, eager, lazy)
	}

	obs.Infof("calibrating %d-module systems (seed %#x)...", cfgModules(cfg), cfgSeed(cfg))
	buildStart := time.Now()
	srv, err := service.New(cfg)
	if err != nil {
		fail(err)
	}
	obs.Infof("calibration done in %s", time.Since(buildStart).Round(time.Millisecond))
	for _, ro := range srv.RestoreReport() {
		if *stateDir == "" {
			break
		}
		switch ro.Outcome {
		case "warm":
			// CI greps for this exact shape; keep it stable.
			obs.Infof("restored %s from snapshot (generation %d)", ro.System, ro.Generation)
		case "cold":
			obs.Infof("built %s cold (%s)", ro.System, ro.Note)
		default:
			obs.Infof("rebuilt %s cold: snapshot %s (%s)", ro.System, ro.Outcome, ro.Note)
		}
	}

	hs, err := telemetry.StartServer(*addr, srv.Handler())
	if err != nil {
		fail(err)
	}
	obs.Infof("serving on http://%s (POST /v1/solve, GET /healthz)", hs.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(hs.Addr()+"\n"), 0o644); err != nil {
			fail(err)
		}
	}

	var runErr error
	if *selftest {
		runErr = runSelftest(hs.Addr(), *selfN, *selfC, observer.Enabled())
		shutdown(hs, srv, *drainTimeout, obs)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		s := <-sig
		obs.Infof("received %v, draining...", s)
		shutdown(hs, srv, *drainTimeout, obs)
	}

	// Close flushes -metrics after the drain, so the dump includes the final
	// request and queue counters.
	if cerr := obs.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fail(runErr)
	}
}

// runRouter serves router mode: no systems of its own, just breaker-guarded
// proxying over the shard set until SIGTERM/SIGINT.
func runRouter(addr, addrFile, spec, traceMode string, traceRing int, obs *cliutil.Obs) error {
	set, err := shard.ParseSet(spec)
	if err != nil {
		return err
	}
	var observer *reqobs.Observer
	switch traceMode {
	case "on", "":
		observer = reqobs.New(reqobs.Config{
			RingSize: traceRing,
			Logger:   obs.Logger(),
			// Default route objectives plus a per-shard availability
			// objective, so /v1/slo burns when a shard starts failing.
			Objectives: shard.Objectives(set),
		})
	case "off":
	default:
		return fmt.Errorf("-trace must be on or off, got %q", traceMode)
	}
	r, err := shard.NewRouter(shard.RouterConfig{Set: set, Obs: observer})
	if err != nil {
		return err
	}
	r.Start()
	hs, err := telemetry.StartServer(addr, r.Handler())
	if err != nil {
		return err
	}
	for _, m := range set.Members() {
		obs.Infof("routing to shard %q at %s", m.Name, m.Addr)
	}
	obs.Infof("router serving on http://%s", hs.Addr())
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(hs.Addr()+"\n"), 0o644); err != nil {
			return err
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	obs.Infof("received %v, stopping router...", s)
	r.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}

// shutdown runs the graceful drain sequence: listener first (stop accepting,
// finish in-flight responses), then the job queue (finish queued and running
// jobs), each bounded by the drain timeout.
func shutdown(hs *telemetry.Server, srv *service.Server, timeout time.Duration, obs *cliutil.Obs) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		obs.Infof("listener shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		obs.Infof("queue drain: %v", err)
	}
	obs.Infof("drained cleanly")
}

// runSelftest hammers the live instance through the public client and
// enforces the >= 5x cache-speedup acceptance gate plus (when tracing is on)
// the observability gate — a retained hot-solve trace with a cache-hit span
// and zero availability burn — then runs the drift-loop gate against a
// dedicated drifting instance.
func runSelftest(addr string, hotRequests, clients int, traced bool) error {
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:     "http://" + addr,
		Concurrency: clients,
		HotRequests: hotRequests,
	})
	if err != nil {
		return err
	}
	loadgen.WriteReport(os.Stdout, rep)
	if s := rep.Speedup(); s < 5 {
		return fmt.Errorf("selftest: cache speedup %.1fx below the 5x gate", s)
	}
	if traced {
		if err := rep.VerifyObs(); err != nil {
			return fmt.Errorf("selftest: %w", err)
		}
	}
	if err := runDriftSelftest(traced); err != nil {
		return err
	}
	if err := runFailoverSelftest(); err != nil {
		return err
	}
	fmt.Println("selftest: PASS")
	return nil
}

// runFailoverSelftest is the crash-safety acceptance gate: an in-process
// two-shard fleet over a shared state directory, solve load through a
// router, the primary killed ungracefully mid-window, then revived over the
// same directory. The gate demands zero non-budget errors at the router
// (only 429/503, no hung requests, every 200 byte-identical), failover
// traffic actually served, and the revived shard's first solve answered
// within 1 s from restored state — a cache hit at the pre-kill PVT
// generation with the restored flag up.
func runFailoverSelftest() error {
	stateDir, err := os.MkdirTemp("", "varpower-selftest-state-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	newShard := func(eager, lazy []string) (*service.Server, *telemetry.Server, error) {
		svc, err := service.New(service.Config{
			Systems:     eager,
			LazySystems: lazy,
			Modules:     32,
			StateDir:    stateDir,
		})
		if err != nil {
			return nil, nil, err
		}
		hs, err := telemetry.StartServer("127.0.0.1:0", svc.Handler())
		if err != nil {
			return nil, nil, err
		}
		return svc, hs, nil
	}

	// Ownership depends only on member names; pick names so "p" is HA8K's
	// primary regardless of which addresses the kernel hands out.
	namer, err := shard.ParseSet("p=h:1,q=h:2")
	if err != nil {
		return err
	}
	primaryName := namer.Primary("HA8K").Name
	secondaryName := "p"
	if primaryName == "p" {
		secondaryName = "q"
	}

	primarySvc, primaryHS, err := newShard([]string{"HA8K"}, nil)
	if err != nil {
		return fmt.Errorf("selftest: primary shard: %w", err)
	}
	_, secondaryHS, err := newShard([]string{"Cab"}, []string{"HA8K"})
	if err != nil {
		return fmt.Errorf("selftest: secondary shard: %w", err)
	}
	defer secondaryHS.Kill()

	// Prime the primary with non-trivial state: a recalibration moves the
	// PVT generation to 1 (making generation continuity a real check), a
	// solve populates the cache, a snapshot persists both.
	pc := client.New("http://" + primaryHS.Addr())
	if _, err := pc.Recalibrate(ctx, service.RecalibrateRequest{System: "HA8K", Modules: []int{0, 1}}); err != nil {
		return fmt.Errorf("selftest: prime recalibrate: %w", err)
	}
	req := service.SolveRequest{System: "HA8K", Workload: "*DGEMM", Scheme: "VaPc", BudgetWatts: 20000}
	if _, _, err := pc.Solve(ctx, req); err != nil {
		return fmt.Errorf("selftest: prime solve: %w", err)
	}
	if _, err := primarySvc.Snapshot(); err != nil {
		return fmt.Errorf("selftest: prime snapshot: %w", err)
	}

	set, err := shard.ParseSet(fmt.Sprintf("%s=%s,%s=%s",
		primaryName, primaryHS.Addr(), secondaryName, secondaryHS.Addr()))
	if err != nil {
		return err
	}
	router, err := shard.NewRouter(shard.RouterConfig{
		Set:     set,
		Breaker: shard.BreakerConfig{FailThreshold: 2, OpenBackoff: 25 * time.Millisecond, MaxBackoff: 200 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	router.Start()
	defer router.Stop()
	front, err := telemetry.StartServer("127.0.0.1:0", router.Handler())
	if err != nil {
		return err
	}
	defer front.Kill()

	rep, err := loadgen.ChaosCheck(ctx, loadgen.ChaosOptions{
		RouterURL:   "http://" + front.Addr(),
		Request:     req,
		Concurrency: 4,
		Duration:    2 * time.Second,
		KillAfter:   500 * time.Millisecond,
		Kill:        primaryHS.Kill,
		Restart: func() (string, error) {
			_, hs, err := newShard([]string{"HA8K"}, nil)
			if err != nil {
				return "", err
			}
			return "http://" + hs.Addr(), nil
		},
	})
	if err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	loadgen.WriteChaosReport(os.Stdout, rep)
	if err := rep.Verify(time.Second); err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	return nil
}

// runDriftSelftest boots an in-process daemon whose owned HA8K has a
// drifting cap (module 5 enforcing 1.2× the programmed limit) and drives
// the attribution → drift-flag → recalibration → corrected-solve loop
// through the public API. When traced, the instance runs under an impossible
// 1 ns solve-latency objective, so after the fault-ladder traffic its
// /v1/slo must show nonzero burn — the negative half of the SLO gate (the
// healthy instance's burn was already gated to zero by VerifyObs).
func runDriftSelftest(traced bool) error {
	plan := &faults.Plan{
		Name:   "selftest-drift",
		Events: []faults.Event{{Module: 5, Kind: faults.KindCapDrift, Magnitude: 1.2}},
	}
	var observer *reqobs.Observer
	if traced {
		observer = reqobs.New(reqobs.Config{
			Objectives: []reqobs.Objective{{
				Route:        "/v1/solve",
				LatencyBound: time.Nanosecond,
				LatencyGoal:  0.99,
				Availability: 0.999,
			}},
		})
	}
	srv, err := service.New(service.Config{
		Systems: []string{"HA8K"},
		Modules: 48,
		Faults:  plan,
		Obs:     observer,
	})
	if err != nil {
		return fmt.Errorf("selftest: drifting instance: %w", err)
	}
	hs, err := telemetry.StartServer("127.0.0.1:0", srv.Handler())
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = srv.Drain(ctx)
	}()
	rep, err := loadgen.DriftCheck(context.Background(), loadgen.DriftOptions{
		BaseURL: "http://" + hs.Addr(),
	})
	if err != nil {
		return err
	}
	loadgen.WriteDriftReport(os.Stdout, rep)
	if traced {
		if err := verifyBurn("http://" + hs.Addr()); err != nil {
			return err
		}
	}
	return nil
}

// verifyBurn asserts the drifting instance's /v1/slo reports nonzero latency
// burn under its impossible objective — if this stays zero the burn-rate
// pipeline is broken, not the traffic healthy.
func verifyBurn(baseURL string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	slo, err := client.New(baseURL).SLO(ctx)
	if err != nil {
		return fmt.Errorf("selftest: fetch drifting /v1/slo: %w", err)
	}
	solve := slo.Route("/v1/solve")
	if solve == nil {
		return fmt.Errorf("selftest: drifting /v1/slo has no /v1/solve objective")
	}
	if burn := solve.MaxBurn(); burn <= 0 {
		return fmt.Errorf("selftest: drifting instance burn %.3f under a 1ns latency objective, want > 0 (%d slow of %d)",
			burn, solve.Slow, solve.Total)
	}
	fmt.Printf("slo:   drifting instance burn fires as expected (max burn %.1f, %d slow of %d)\n",
		solve.MaxBurn(), solve.Slow, solve.Total)
	return nil
}

// cfgModules reports the effective module count (mirrors Config defaulting).
func cfgModules(c service.Config) int {
	if c.Modules == 0 {
		return 192
	}
	return c.Modules
}

// cfgSeed reports the effective serving seed (mirrors Config defaulting).
func cfgSeed(c service.Config) uint64 {
	if c.Seed == 0 {
		return 0x5c15
	}
	return c.Seed
}
