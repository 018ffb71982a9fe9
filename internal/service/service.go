// Package service is varpower's served control plane: the paper's framework
// is a once-per-system calibration (the PVT) plus a per-job α-solve
// (Equations 6–7), which is exactly the shape of a service a resource
// manager calls at job-submission time — the RMAP integration the paper's
// Section 7 anticipates. The daemon (cmd/varpowerd) owns cluster state —
// instantiated system presets, their install-time PVTs, calibrated
// per-workload PMTs — and serves it over a dependency-free net/http JSON
// API:
//
//	GET  /healthz        liveness and queue depth
//	GET  /v1/systems     the loaded system presets
//	GET  /v1/pvt/{sys}   a system's Power Variation Table
//	POST /v1/solve       budget solve → per-module allocations, α, time
//	POST /v1/jobs        enqueue a full simulated run (bounded queue)
//	GET  /v1/jobs/{id}   job status / result polling
//	GET  /v1/attrib/{sys} live attribution + drift report for an owned system
//	POST /v1/recalibrate incremental PVT refresh of drifting modules
//	GET  /v1/metrics     the telemetry registry (Prometheus/JSON/CSV/OpenMetrics)
//	GET  /v1/traces      retained request traces (internal/obs ring)
//	GET  /v1/traces/{id} one trace, JSON or ?format=perfetto (Chrome viewer)
//	GET  /v1/slo         per-route SLO burn-rate report
//
// The daemon also closes the continuous-observability loop: every job run on
// an owned system streams into that system's attribution collector
// (internal/attrib), whose drift detector flags modules departing from the
// install-time PVT; POST /v1/recalibrate re-measures only the flagged
// modules (core.RefreshPVT) and splices the result into the live table with
// no restart and no full sweep. Each recalibration bumps the system's PVT
// generation, which prefixes the solve and PMT cache keys — so stale cached
// allocations are structurally unreachable the moment the table changes.
//
// The hot path gets production treatment: solve responses are cached as
// rendered bytes under a content key (system, workload, budget, scheme,
// seed, modules, faults) with singleflight coalescing, so concurrent
// identical solves compute once and identical requests return byte-identical
// bodies; calibrated models (PMT and VaFs margin) are cached one level
// down so budget sweeps over one workload recalibrate nothing; the job
// queue is bounded and sheds load with 429 + Retry-After instead of
// building unbounded backlog; and everything the determinism contract
// requires still holds — a solve's body depends only on its request, never
// on worker counts, cache state, or arrival order.
//
// Request observability rides on internal/obs: when Config.Obs is set, every
// request gets a W3C trace context (adopted from an incoming traceparent or
// freshly minted) whose spans — queue admission, cache lookup, calibration,
// solve, measured run — are retained in a tail-biased ring and served back
// through /v1/traces, while per-route SLO burn rates accumulate behind
// /v1/slo. A nil Config.Obs disables all of it at zero per-request cost, and
// in either mode solve bodies are byte-identical: trace context travels only
// in headers and side endpoints, never in a response body.
package service

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/faults"
	"varpower/internal/obs"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// HTTP-layer telemetry: request counts by route and status code, latency
// histograms by route, and an in-flight gauge. Routes are the fixed
// patterns, never raw paths, so cardinality is bounded.
var (
	mHTTPInflight = telemetry.Default().Gauge("varpower_http_inflight",
		"HTTP requests currently being served.", nil)
)

// httpLatencyBuckets spans sub-millisecond cache hits to multi-second cold
// calibrations.
var httpLatencyBuckets = telemetry.ExpBuckets(100e-6, 2.51, 16)

// Config parameterises a Server.
type Config struct {
	// Systems lists preset names to load (see cluster.SpecByName); empty
	// loads all four Table-2 machines.
	Systems []string
	// Modules is how many modules to instantiate per system, clamped to each
	// spec's total; 0 selects 192 — large enough for meaningful population
	// statistics, small enough that startup calibration is fast.
	Modules int
	// Seed is the serving seed: the systems the daemon owns are instantiated
	// and calibrated at this seed, and requests that omit seed use it.
	Seed uint64
	// Workers bounds each framework's per-module fan-out (0 = GOMAXPROCS).
	Workers int
	// QueueSize bounds the job queue (default 64).
	QueueSize int
	// JobWorkers is the executor pool width (default 2).
	JobWorkers int
	// CacheSize bounds each cache's retained entries (default 4096).
	CacheSize int
	// FaultHorizon is the virtual-seconds horizon for named fault levels
	// (default 10, matching the resilience experiment).
	FaultHorizon float64
	// Faults, when non-nil, is a fault plan installed on every owned system
	// at startup — the daemon then serves a degrading cluster (cap-drift,
	// failing sensors) instead of a pristine one, which is what the
	// drift-detection loop exists for. Install-time PVT calibration runs
	// under the plan too, exactly as it would on real drifting hardware.
	Faults *faults.Plan
	// Obs enables request-scoped tracing, structured request logging and SLO
	// monitoring (nil disables all three at zero per-request cost).
	Obs *obs.Observer
	// StateDir, when set, enables durable snapshots: each owned system's
	// calibrated state (PVT, generation, attribution, current-generation
	// cache rows) is persisted to <StateDir>/<system>.snap — written on
	// Drain, on POST /v1/snapshot, and every SnapshotInterval — and restored
	// warm at the next boot, skipping recalibration.
	StateDir string
	// SnapshotInterval is the periodic snapshot cadence (0 disables the
	// loop; Drain and /v1/snapshot still write).
	SnapshotInterval time.Duration
	// LazySystems lists presets registered but not built at startup: the
	// first request addressing one builds it on demand, preferring a warm
	// restore from StateDir. This is the failover posture — a secondary
	// shard lists its primary's systems lazily, paying nothing until the
	// router actually fails over, then adopting the primary's latest
	// snapshot.
	LazySystems []string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	// An explicit lazy-only config is a spare shard, not "serve everything".
	if len(c.Systems) == 0 && len(c.LazySystems) == 0 {
		for _, s := range cluster.Presets() {
			c.Systems = append(c.Systems, s.Name)
		}
		// The hybrid CPU+GPU presets ride along lazily: servable on first
		// request (their GPU population makes eager calibration pricier),
		// free until then.
		for _, s := range cluster.HybridPresets() {
			c.LazySystems = append(c.LazySystems, s.Name)
		}
	}
	if c.Modules == 0 {
		c.Modules = 192
	}
	if c.Seed == 0 {
		c.Seed = 0x5c15
	}
	if c.QueueSize == 0 {
		c.QueueSize = 64
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.FaultHorizon == 0 {
		c.FaultHorizon = 10
	}
	return c
}

// baseSystem is one owned preset: the instantiated machine and its
// install-time framework (PVT included). The base system is never run
// directly — solves and jobs clone it so concurrent requests cannot clobber
// each other's RAPL limits and pinned frequencies.
type baseSystem struct {
	spec cluster.Spec

	// mu guards fw, pool and gen. Recalibration is the only writer: it swaps
	// in a framework with the refreshed PVT, replaces the replica pool (old
	// replicas carry the old table) and bumps the generation. Readers take
	// snapshots through the accessors below and finish against a consistent
	// (fw, pool) pair.
	mu sync.RWMutex
	fw *core.Framework
	// pool recycles replicas of fw for the hot solve path (serving seed,
	// healthy, loaded size); replicas return reset to fresh-clone state.
	pool *core.ReplicaPool
	// gen counts PVT generations (0 = install-time). It prefixes the solve
	// and PMT cache keys, so a recalibration invalidates every cached answer
	// derived from the previous table without touching the caches.
	gen uint64

	// recalMu serialises recalibrations (each is a real re-measurement).
	recalMu sync.Mutex

	// restored marks a system whose boot state came from a snapshot rather
	// than a fresh calibration sweep.
	restored bool

	// collector is the system's continuous attribution + drift-detection
	// engine; every job run on the owned cluster state streams into it.
	collector *attrib.Collector
}

// snapshot returns a consistent (framework, pool, generation) triple.
func (b *baseSystem) snapshot() (*core.Framework, *core.ReplicaPool, uint64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.fw, b.pool, b.gen
}

// framework returns the current live framework.
func (b *baseSystem) framework() *core.Framework {
	fw, _, _ := b.snapshot()
	return fw
}

// generation returns the current PVT generation.
func (b *baseSystem) generation() uint64 {
	_, _, gen := b.snapshot()
	return gen
}

// calibration is a model-cache value: the calibrated model (its PMT and
// margin) plus the PVT quarantine list it was built against.
type calibration struct {
	model       *core.Model
	quarantined []int
}

// Server is the control plane's state and handler set.
type Server struct {
	cfg   Config
	names []string // canonical preset names, load order (eager only)

	// baseMu guards base: lazy systems are built (and inserted) on first
	// request, so the map mutates at runtime.
	baseMu sync.RWMutex
	base   map[string]*baseSystem // key: lower-cased preset name

	// lazyMu serialises on-demand builds; lazy maps lower-cased name →
	// spec for registered-but-unbuilt systems.
	lazyMu    sync.Mutex
	lazy      map[string]cluster.Spec
	lazyNames []string

	// restores records each eager system's boot outcome (warm/cold/...).
	restores []RestoreOutcome

	solves *flightCache[[]byte]
	pmts   *flightCache[calibration]
	queue  *jobQueue

	mux   *http.ServeMux
	start time.Time

	// snapStop, when non-nil, closes to stop the periodic snapshot loop.
	snapStop chan struct{}
	snapOnce sync.Once

	// testHookBeforeJob, when set, runs at the start of every job execution;
	// the queue tests use it to hold executors while they fill the queue.
	testHookBeforeJob func()
}

// New instantiates the server's cluster state: every configured preset is
// built at the serving seed and PVT-calibrated (the install-time step).
// This is the slow part of startup — milliseconds per 192-module system —
// and never recurs while serving. With Config.StateDir set, a system whose
// snapshot is present, intact and configuration-compatible comes up warm
// instead: the persisted PVT is adopted, the generation continues where it
// left off, and the calibration sweep is skipped entirely.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		base:   make(map[string]*baseSystem),
		lazy:   make(map[string]cluster.Spec),
		solves: newFlightCache[[]byte]("solve", cfg.CacheSize),
		pmts:   newFlightCache[calibration]("pmt", cfg.CacheSize),
		queue:  newJobQueue(cfg.QueueSize, cfg.JobWorkers),
		start:  time.Now(),
	}
	for _, name := range cfg.Systems {
		spec, err := cluster.SpecByName(name)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(spec.Name)
		if _, dup := s.base[key]; dup {
			continue
		}
		b, outcome, err := s.buildSystem(spec)
		if err != nil {
			return nil, err
		}
		s.base[key] = b
		s.names = append(s.names, spec.Name)
		s.restores = append(s.restores, outcome)
	}
	for _, name := range cfg.LazySystems {
		spec, err := cluster.SpecByName(name)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(spec.Name)
		if _, eager := s.base[key]; eager {
			continue
		}
		if _, dup := s.lazy[key]; dup {
			continue
		}
		s.lazy[key] = spec
		s.lazyNames = append(s.lazyNames, spec.Name)
	}
	s.queue.run = s.runJob
	s.queue.start()
	s.mux = s.routes()
	if cfg.StateDir != "" && cfg.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotInterval, s.snapStop)
	}
	return s, nil
}

// buildSystem brings one preset up: warm from a snapshot when possible,
// cold (instantiate + PVT-calibrate) otherwise.
func (s *Server) buildSystem(spec cluster.Spec) (*baseSystem, RestoreOutcome, error) {
	n := s.cfg.Modules
	if total := spec.TotalModules(); n > total {
		n = total
	}
	if s.cfg.StateDir != "" {
		if b, outcome := s.restoreSystem(spec, n); b != nil {
			restoresTotal(outcome.Outcome).Inc()
			return b, outcome, nil
		} else if outcome.Outcome != "cold" {
			// A rejected snapshot falls through to the cold build below, but
			// the rejection itself is the reportable outcome.
			restoresTotal(outcome.Outcome).Inc()
			b, _, err := s.coldBuild(spec, n)
			return b, outcome, err
		}
		restoresTotal("cold").Inc()
	}
	return s.coldBuild(spec, n)
}

// coldBuild is the from-scratch path: instantiate the cluster at the
// serving seed, install the boot fault plan, run install-time calibration.
func (s *Server) coldBuild(spec cluster.Spec, n int) (*baseSystem, RestoreOutcome, error) {
	sys, err := cluster.New(spec, n, s.cfg.Seed)
	if err != nil {
		return nil, RestoreOutcome{}, err
	}
	if s.cfg.Faults != nil {
		inj, err := faults.NewInjector(s.cfg.Faults)
		if err != nil {
			return nil, RestoreOutcome{}, fmt.Errorf("service: fault plan for %s: %w", spec.Name, err)
		}
		sys.InstallFaults(inj)
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, s.cfg.Workers)
	if err != nil {
		return nil, RestoreOutcome{}, fmt.Errorf("service: calibrate %s: %w", spec.Name, err)
	}
	if fw.GPVT, err = s.gpuTableFor(sys); err != nil {
		return nil, RestoreOutcome{}, err
	}
	return &baseSystem{
		spec: spec, fw: fw, pool: core.NewReplicaPool(fw),
		collector: attrib.New(attrib.Config{}),
	}, RestoreOutcome{System: spec.Name, Outcome: "cold", Note: "calibrated"}, nil
}

// gpuTableFor runs the GPU device class's install-time calibration sweep
// (nil for CPU-only systems). The sweep is deterministic in (spec, seed),
// so restored systems regenerate it instead of persisting it.
func (s *Server) gpuTableFor(sys *cluster.System) (*core.PVT, error) {
	if !sys.Spec.Hybrid() {
		return nil, nil
	}
	gpvt, err := core.GenerateGPUPVT(context.Background(), sys, s.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("service: GPU calibrate %s: %w", sys.Spec.Name, err)
	}
	return gpvt, nil
}

// builtSystem looks up an already-built system (no lazy materialisation).
func (s *Server) builtSystem(name string) (*baseSystem, bool) {
	s.baseMu.RLock()
	defer s.baseMu.RUnlock()
	b, ok := s.base[strings.ToLower(strings.TrimSpace(name))]
	return b, ok
}

// builtNames lists every built system's canonical name: the eager set plus
// any lazy systems materialised so far, in load/build order.
func (s *Server) builtNames() []string {
	s.baseMu.RLock()
	defer s.baseMu.RUnlock()
	out := make([]string, 0, len(s.names)+len(s.lazyNames))
	out = append(out, s.names...)
	for _, name := range s.lazyNames {
		if _, built := s.base[strings.ToLower(name)]; built {
			out = append(out, name)
		}
	}
	return out
}

// servableNames lists every name the server will answer for (built or
// lazy), for error messages.
func (s *Server) servableNames() []string {
	out := append([]string{}, s.names...)
	return append(out, s.lazyNames...)
}

// baseFor resolves a request's system: a built system directly, a
// registered lazy one by materialising it on first use — warm from the
// state directory when the primary left a snapshot there, cold otherwise.
func (s *Server) baseFor(name string) (*baseSystem, bool) {
	if b, ok := s.builtSystem(name); ok {
		return b, true
	}
	// Alias forms ("hybrid", "summit", "vulcan") canonicalise through the
	// preset registry, so the aliases cluster.SpecByName documents work
	// over HTTP too.
	if spec, err := cluster.SpecByName(name); err == nil {
		name = spec.Name
		if b, ok := s.builtSystem(name); ok {
			return b, true
		}
	}
	key := strings.ToLower(strings.TrimSpace(name))
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	// Re-check under the build lock: a concurrent request may have built it.
	if b, ok := s.builtSystem(key); ok {
		return b, true
	}
	spec, ok := s.lazy[key]
	if !ok {
		return nil, false
	}
	b, outcome, err := s.buildSystem(spec)
	if err != nil {
		return nil, false
	}
	s.baseMu.Lock()
	s.base[key] = b
	s.restores = append(s.restores, outcome)
	s.baseMu.Unlock()
	return b, true
}

// Handler returns the daemon's full route set, including the telemetry
// debug subtree (/debug/pprof, /debug/vars).
func (s *Server) Handler() http.Handler { return s.mux }

// SolveCacheStats snapshots the rendered-response cache's counters.
func (s *Server) SolveCacheStats() CacheStats { return s.solves.Stats() }

// PMTCacheStats snapshots the model cache's counters.
func (s *Server) PMTCacheStats() CacheStats { return s.pmts.Stats() }

// routes wires the endpoint table.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /v1/systems", s.instrument("/v1/systems", s.handleSystems))
	mux.Handle("GET /v1/pvt/{system}", s.instrument("/v1/pvt", s.handlePVT))
	mux.Handle("POST /v1/solve", s.instrument("/v1/solve", s.handleSolve))
	mux.Handle("POST /v1/jobs", s.instrument("/v1/jobs", s.handleSubmitJob))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("/v1/jobs/get", s.handleGetJob))
	mux.Handle("GET /v1/attrib/{system}", s.instrument("/v1/attrib", s.handleAttrib))
	mux.Handle("POST /v1/recalibrate", s.instrument("/v1/recalibrate", s.handleRecalibrate))
	mux.Handle("POST /v1/snapshot", s.instrument("/v1/snapshot", s.handleSnapshot))
	mux.Handle("GET /v1/metrics", s.instrument("/v1/metrics", s.handleMetrics))
	mux.Handle("GET /v1/traces", s.instrument("/v1/traces", s.handleTraces))
	mux.Handle("GET /v1/traces/{id}", s.instrument("/v1/traces/get", s.handleTrace))
	mux.Handle("GET /v1/slo", s.instrument("/v1/slo", s.handleSLO))
	mux.Handle("/debug/", telemetry.DebugMux(telemetry.Default()))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no route for %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// Observability header keys in Go's canonical MIME form — Header.Get/Set
// with an already-canonical key never allocate, which keeps the disabled
// middleware path at zero observability overhead. HTTP header names are
// case-insensitive, so W3C's lowercase "traceparent" matches fine.
const (
	headerTraceparent = "Traceparent"
	headerRequestID   = "X-Request-Id"
)

// statusRecorder captures the handler's status code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code.
func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the varpower_http_* metrics for its route
// and, when observability is enabled, the request-tracing middleware: the
// trace context is adopted from the incoming traceparent (or freshly minted)
// and handed to the handler through the request context, the response echoes
// `traceparent` and `X-Request-ID` headers, the finished trace lands in the
// retention ring, and the latency observation carries the trace ID as its
// exemplar. With a nil observer the wrapper reduces to the bare metrics
// path — no context values, no headers beyond an incoming X-Request-ID echo,
// no extra allocations.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	hist := telemetry.Default().Histogram("varpower_http_request_seconds",
		"HTTP request handling latency by route.", httpLatencyBuckets,
		telemetry.Labels{"route": route})
	// The route's request counters, resolved once per status code.
	var counters sync.Map // int → *telemetry.Counter
	counter := func(code int) *telemetry.Counter {
		c, ok := counters.Load(code)
		if !ok {
			c, _ = counters.LoadOrStore(code, telemetry.Default().Counter("varpower_http_requests_total",
				"HTTP requests served, by route and status code.",
				telemetry.Labels{"route": route, "code": strconv.Itoa(code)}))
		}
		return c.(*telemetry.Counter)
	}
	o := s.cfg.Obs
	// A client polls a job until it is done; its routine reads must not
	// evict the job's own trace from the ring.
	poll := route == "/v1/jobs/get"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mHTTPInflight.Add(1)
		defer mHTTPInflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		var rt *obs.RequestTrace
		if o.Enabled() {
			ctx, t := o.StartRequest(r.Context(), obs.Request{
				Method:      r.Method,
				Route:       route,
				Traceparent: r.Header.Get(headerTraceparent),
				RequestID:   r.Header.Get(headerRequestID),
				Poll:        poll,
			})
			rt = t
			w.Header().Set(headerTraceparent, rt.Traceparent())
			w.Header().Set(headerRequestID, rt.RequestID())
			r = r.WithContext(ctx)
		} else if reqID := r.Header.Get(headerRequestID); reqID != "" {
			w.Header().Set(headerRequestID, reqID)
		}
		start := time.Now()
		h(rec, r)
		secs := time.Since(start).Seconds()
		if rt != nil {
			hist.ObserveWithExemplar(secs, rt.TraceID().String())
			o.EndRequest(rt, rec.code)
		} else {
			hist.Observe(secs)
		}
		counter(rec.code).Inc()
	})
}

// --- Read endpoints ---------------------------------------------------------

// handleHealthz reports liveness, uptime and queue depth.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_s":    int64(time.Since(s.start).Seconds()),
		"systems":     s.builtNames(),
		"queue_depth": s.queue.depth(),
	})
}

// systemInfo is one /v1/systems row.
type systemInfo struct {
	Name            string `json:"name"`
	Site            string `json:"site"`
	Arch            string `json:"arch"`
	Measurement     string `json:"measurement"`
	SupportsCapping bool   `json:"supports_capping"`
	ModulesTotal    int    `json:"modules_total"`
	ModulesLoaded   int    `json:"modules_loaded"`
	Quarantined     int    `json:"quarantined"`
	PVTGeneration   uint64 `json:"pvt_generation"`
	// Restored marks a system whose state was adopted from a durable
	// snapshot at boot rather than freshly calibrated.
	Restored bool `json:"restored,omitempty"`
	// GPU fields are present for hybrid presets only.
	GPUArch        string `json:"gpu_arch,omitempty"`
	GPUsLoaded     int    `json:"gpus_loaded,omitempty"`
	GPUQuarantined int    `json:"gpu_quarantined,omitempty"`
}

// handleSystems lists the built presets (lazy systems appear once their
// first request materialises them).
func (s *Server) handleSystems(w http.ResponseWriter, _ *http.Request) {
	names := s.builtNames()
	out := make([]systemInfo, 0, len(names))
	for _, name := range names {
		b, ok := s.builtSystem(name)
		if !ok {
			continue
		}
		fw, _, gen := b.snapshot()
		info := systemInfo{
			Name:            b.spec.Name,
			Site:            b.spec.Site,
			Arch:            b.spec.Arch.Name,
			Measurement:     string(b.spec.Measurement),
			SupportsCapping: b.spec.Measurement.SupportsCapping(),
			ModulesTotal:    b.spec.TotalModules(),
			ModulesLoaded:   fw.Sys.NumModules(),
			Quarantined:     len(fw.PVT.Quarantined),
			PVTGeneration:   gen,
			Restored:        b.restored,
		}
		if b.spec.Hybrid() {
			info.GPUArch = b.spec.GPU.Arch.Name
			info.GPUsLoaded = fw.Sys.NumGPUs()
			if fw.GPVT != nil {
				info.GPUQuarantined = len(fw.GPVT.Quarantined)
			}
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"systems": out})
}

// handleSnapshot is POST /v1/snapshot: persist every built system's durable
// state now. 503 when the daemon has no state directory — the caller asked
// for a durability guarantee the configuration cannot honour.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.StateDir == "" {
		writeError(w, http.StatusServiceUnavailable, CodeInternal,
			"snapshots disabled: no state directory configured (run with -state-dir)")
		return
	}
	metas, err := s.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshots": metas})
}

// handlePVT serves a loaded system's Power Variation Table.
func (s *Server) handlePVT(w http.ResponseWriter, r *http.Request) {
	b, ok := s.baseFor(r.PathValue("system"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"system %q not loaded (have %v)", r.PathValue("system"), s.servableNames())
		return
	}
	writeJSON(w, http.StatusOK, b.framework().PVT)
}

// handleMetrics re-exports the telemetry registry; ?format=json|csv|prom
// overrides the default Prometheus text exposition, and ?format=openmetrics
// selects the OpenMetrics form with trace-ID exemplars on histogram buckets.
// SLO burn-rate gauges are refreshed on every scrape (pull model).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := telemetry.FormatPrometheus
	ct := "text/plain; version=0.0.4; charset=utf-8"
	switch strings.ToLower(r.URL.Query().Get("format")) {
	case "", "prom", "prometheus":
	case "json":
		format, ct = telemetry.FormatJSON, "application/json; charset=utf-8"
	case "csv":
		format, ct = telemetry.FormatCSV, "text/csv; charset=utf-8"
	case "openmetrics", "om":
		format, ct = telemetry.FormatOpenMetrics, "application/openmetrics-text; version=1.0.0; charset=utf-8"
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"unknown metrics format %q (want prom, json, csv or openmetrics)", r.URL.Query().Get("format"))
		return
	}
	s.cfg.Obs.PublishSLO()
	w.Header().Set("Content-Type", ct)
	_ = telemetry.Write(w, telemetry.Default(), format)
}

// --- Solve ------------------------------------------------------------------

// canonical validates and canonicalises a request against the loaded state:
// names take their canonical forms, defaults are filled in, and the returned
// request is the cache-key identity — two requests meaning the same solve
// canonicalise identically.
func (s *Server) canonical(req SolveRequest) (SolveRequest, *baseSystem, *workload.Benchmark, core.Scheme, units.Watts, error) {
	b, ok := s.baseFor(req.System)
	if !ok {
		return req, nil, nil, 0, 0, fmt.Errorf("system %q not loaded (have %v)", req.System, s.servableNames())
	}
	req.System = b.spec.Name
	bench, err := workload.ByName(req.Workload)
	if err != nil {
		return req, nil, nil, 0, 0, err
	}
	req.Workload = bench.Name
	scheme, err := core.SchemeByName(req.Scheme)
	if err != nil {
		return req, nil, nil, 0, 0, err
	}
	req.Scheme = scheme.String()
	budget, err := req.budget()
	if err != nil {
		return req, nil, nil, 0, 0, err
	}
	req.Budget = ""
	req.BudgetWatts = float64(budget)
	if req.Seed == 0 {
		req.Seed = s.cfg.Seed
	}
	loaded := b.framework().Sys.NumModules()
	if req.Modules == 0 {
		req.Modules = loaded
	}
	if req.Modules < 1 || req.Modules > b.spec.TotalModules() {
		return req, nil, nil, 0, 0, fmt.Errorf("modules %d outside [1, %d]", req.Modules, b.spec.TotalModules())
	}
	if req.Faults != "" {
		level, err := faults.LevelByName(req.Faults, s.cfg.FaultHorizon)
		if err != nil {
			return req, nil, nil, 0, 0, err
		}
		if level.Name == "none" {
			req.Faults = "" // byte-identical to not asking for faults
		} else {
			req.Faults = level.Name
		}
	}
	if b.spec.Hybrid() {
		if req.Splitter == "" {
			req.Splitter = core.SplitGreedy.String()
		}
		splitter, err := core.SplitterByName(req.Splitter)
		if err != nil {
			return req, nil, nil, 0, 0, err
		}
		req.Splitter = splitter.String()
	} else if req.Splitter != "" {
		return req, nil, nil, 0, 0, fmt.Errorf("splitter %q set but %s has no GPU device class", req.Splitter, b.spec.Name)
	}
	return req, b, bench, scheme, budget, nil
}

// solveKey renders the canonical request as the content cache key. The
// system's PVT generation leads: a recalibration bumps it, so every answer
// computed against the previous table becomes unreachable at once.
func solveKey(gen uint64, req SolveRequest) string {
	return fmt.Sprintf("g%d|%s|%s|%s|%.6f|%d|%d|%s|%s",
		gen, req.System, req.Workload, req.Scheme, req.BudgetWatts, req.Modules, req.Seed, req.Faults, req.Splitter)
}

// pmtKey is the model cache key: everything but the budget, which the
// model does not depend on — that is what makes budget sweeps cheap. Like
// solveKey it is generation-prefixed, since calibration divides by the PVT.
func pmtKey(gen uint64, req SolveRequest) string {
	return fmt.Sprintf("g%d|%s|%s|%s|%d|%d|%s",
		gen, req.System, req.Workload, req.Scheme, req.Modules, req.Seed, req.Faults)
}

// frameworkFor materialises the system a canonical request solves against.
// The serving-seed, healthy, full-size case borrows a pooled replica of the
// owned base system (release returns it reset for the next request); any
// other seed, size or fault level builds and calibrates a fresh replica —
// the genuinely cold path, whose release is a no-op. Callers must invoke
// release exactly once, after their last use of the framework.
func (s *Server) frameworkFor(req SolveRequest, b *baseSystem) (fw *core.Framework, release func(), err error) {
	base, pool, _ := b.snapshot()
	if req.Seed == s.cfg.Seed && req.Faults == "" && req.Modules <= base.Sys.NumModules() {
		fw := pool.Get()
		return fw, func() { pool.Put(fw) }, nil
	}
	n := req.Modules
	if loaded := base.Sys.NumModules(); n < loaded {
		n = loaded
	}
	sys, err := cluster.New(b.spec, n, req.Seed)
	if err != nil {
		return nil, nil, err
	}
	if req.Faults != "" {
		level, err := faults.LevelByName(req.Faults, s.cfg.FaultHorizon)
		if err != nil {
			return nil, nil, err
		}
		plan, err := faults.Generate(req.Seed, level.Spec, n)
		if err != nil {
			return nil, nil, err
		}
		sys.InstallFaults(faults.MustInjector(plan))
	}
	fw, err = core.NewFrameworkWorkers(sys, nil, s.cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	return fw, func() {}, nil
}

// calibrate builds (or fetches) the calibrated model for a canonical
// request, keyed under the given PVT generation. The calibration span
// carries the model cache disposition; the measured sweep inside a miss
// gets its own span.
func (s *Server) calibrate(ctx context.Context, gen uint64, req SolveRequest, b *baseSystem, bench *workload.Benchmark, scheme core.Scheme) (calibration, error) {
	ctx, sp := obs.StartSpan(ctx, "calibrate")
	defer sp.End()
	cal, err, disp := s.pmts.Do(pmtKey(gen, req), func() (calibration, error) {
		fw, release, err := s.frameworkFor(req, b)
		if err != nil {
			return calibration{}, err
		}
		defer release()
		ids, err := fw.Sys.AllocateFirst(req.Modules)
		if err != nil {
			return calibration{}, err
		}
		_, msp := obs.StartSpan(ctx, "measure")
		msp.SetAttr("kind", "pmt_sweep")
		msp.SetInt("modules", req.Modules)
		fw.Trace = msp
		m, err := fw.BuildModel(bench, ids, scheme)
		msp.Fail(err)
		msp.End()
		if err != nil {
			return calibration{}, err
		}
		return calibration{model: m, quarantined: quarantinedBelow(fw.PVT, req.Modules)}, nil
	})
	sp.SetAttr("cache", string(disp))
	sp.Fail(err)
	return cal, err
}

// solveBody computes the rendered response for a canonical request — the
// cache-miss path. Hybrid systems take the hierarchical route.
func (s *Server) solveBody(ctx context.Context, gen uint64, req SolveRequest, b *baseSystem, bench *workload.Benchmark, scheme core.Scheme, budget units.Watts) ([]byte, error) {
	if b.spec.Hybrid() {
		return s.solveHeteroBody(ctx, req, b, bench, scheme, budget)
	}
	cal, err := s.calibrate(ctx, gen, req, b, bench, scheme)
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "solve")
	sp.SetAttr("scheme", req.Scheme)
	alloc, err := cal.model.Allocate(b.spec, budget)
	sp.Fail(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	resp := solveResponse(req, alloc, cal.quarantined)
	resp.PredictedTimeS = float64(core.PredictTime(bench, b.spec.Arch, alloc, scheme))
	return renderSolve(&resp)
}

// quarantinedBelow lists the PVT's quarantined modules among the first n,
// the ones a job of n modules is allocated.
func quarantinedBelow(pvt *core.PVT, n int) []int {
	var q []int
	for _, id := range pvt.Quarantined {
		if id < n {
			q = append(q, id)
		}
	}
	return q
}

// solveResponse renders a solve's request echo and module-level answer;
// the CPU body adds its predicted time, the hybrid body its class split
// and device allocations.
func solveResponse(req SolveRequest, alloc *core.Allocation, quarantined []int) SolveResponse {
	resp := SolveResponse{
		System:      req.System,
		Workload:    req.Workload,
		Scheme:      req.Scheme,
		BudgetWatts: req.BudgetWatts,
		Modules:     req.Modules,
		Seed:        req.Seed,
		Faults:      req.Faults,
		Alpha:       alloc.Alpha,
		FreqHz:      float64(alloc.Freq),
		Feasible:    alloc.Feasible,
		Clamped:     alloc.Clamped,
		Constrained: alloc.Constrained,

		PredictedPowerW: float64(alloc.TotalPredicted()),
		Quarantined:     quarantined,
		Allocations:     make([]ModuleAllocation, len(alloc.Entries)),
	}
	for i, e := range alloc.Entries {
		resp.Allocations[i] = ModuleAllocation{
			Module:  e.ModuleID,
			PModule: float64(e.Pmodule),
			PCPU:    float64(e.Pcpu),
			PDram:   float64(e.Pdram),
		}
	}
	return resp
}

// solveHeteroBody is the hybrid system's cache-miss path: the machine
// budget is split across the CPU and GPU device classes by the request's
// splitter, then each class runs its own α-solve. Both class models are
// built per request (the hetero pipeline needs them together, so the
// CPU-only model cache does not apply); the solve cache above still absorbs
// repeats.
func (s *Server) solveHeteroBody(ctx context.Context, req SolveRequest, b *baseSystem, bench *workload.Benchmark, scheme core.Scheme, budget units.Watts) ([]byte, error) {
	splitter, err := core.SplitterByName(req.Splitter)
	if err != nil {
		return nil, err
	}
	fw, release, err := s.frameworkFor(req, b)
	if err != nil {
		return nil, err
	}
	defer release()
	if fw.GPVT == nil {
		// A fresh replica (custom seed, fault level or size) has no table
		// for its devices yet: run the install-time sweep on it. Pooled
		// replicas share the base system's.
		if fw.GPVT, err = core.GenerateGPUPVT(ctx, fw.Sys, s.cfg.Workers); err != nil {
			return nil, err
		}
	}
	ids, err := fw.Sys.AllocateFirst(req.Modules)
	if err != nil {
		return nil, err
	}
	devs := fw.AllDevices()
	_, msp := obs.StartSpan(ctx, "measure")
	msp.SetAttr("kind", "hetero_solve")
	msp.SetInt("modules", req.Modules)
	msp.SetInt("devices", len(devs))
	fw.Trace = msp
	alloc, _, _, err := fw.SolveHetero(bench, ids, devs, budget, scheme, splitter)
	msp.Fail(err)
	msp.End()
	if err != nil {
		return nil, err
	}
	resp := solveResponse(req, alloc.CPU, quarantinedBelow(fw.PVT, req.Modules))
	resp.Feasible = alloc.CPU.Feasible && alloc.GPU.Feasible
	resp.Clamped = alloc.CPU.Clamped || alloc.GPU.Clamped
	resp.Constrained = alloc.CPU.Constrained || alloc.GPU.Constrained
	resp.PredictedPowerW = float64(alloc.CPU.TotalPredicted() + alloc.GPU.TotalPredicted())
	resp.PredictedTimeS = float64(alloc.PredictedTime)
	resp.Splitter = req.Splitter
	resp.CPUBudgetW = float64(alloc.CPUBudget)
	resp.GPUBudgetW = float64(alloc.GPUBudget)
	resp.GPUAlpha = alloc.GPU.Alpha
	resp.GPUClockHz = float64(alloc.GPU.Freq)
	resp.GPUQuarantined = fw.GPVT.Quarantined
	resp.GPUAllocations = make([]GPUAllocation, len(alloc.GPU.Entries))
	for i, e := range alloc.GPU.Entries {
		resp.GPUAllocations[i] = GPUAllocation{Device: e.ModuleID, PowerW: float64(e.Pmodule)}
	}
	return renderSolve(&resp)
}

// handleSolve is POST /v1/solve: decode, canonicalise, and answer from the
// content-keyed cache (computing under singleflight on a miss). The cache
// disposition travels in the X-Varpower-Cache header so the body stays
// byte-identical across hit, miss and coalesced answers.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	obs.FromContext(ctx).SetTenant(req.Tenant)
	req, b, bench, scheme, budget, err := s.canonical(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	// The generation is read once, before the cache lookup: a recalibration
	// racing this request either lands before (we serve the new table) or
	// after (we serve a last coherent answer from the old one) — never a mix.
	gen := b.generation()
	// Admission span: the solve path has no run queue, but recording depth
	// at admission keeps solve traces comparable with job traces.
	_, qsp := obs.StartSpan(ctx, "queue.admit")
	qsp.SetInt("queue_depth", s.queue.depth())
	qsp.End()
	cctx, csp := obs.StartSpan(ctx, "cache")
	csp.SetInt("generation", int(gen))
	csp.SetAttr("scheme", req.Scheme)
	body, err, disp := s.solves.Do(solveKey(gen, req), func() ([]byte, error) {
		return s.solveBody(cctx, gen, req, b, bench, scheme, budget)
	})
	csp.SetAttr("cache", string(disp))
	csp.Fail(err)
	csp.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "solve: %v", err)
		return
	}
	// A body of tens of KB goes out with its length, not chunked. The
	// constant header values are shared slices (keys already canonical),
	// so the length is the only header this path allocates.
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	h["X-Varpower-Cache"] = dispHeaders[disp]
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// Header values handleSolve shares across responses; net/http only reads a
// handler's header values, so no response can change them.
var (
	jsonContentType = []string{"application/json; charset=utf-8"}
	dispHeaders     = map[Disposition][]string{
		DispHit:       {string(DispHit)},
		DispMiss:      {string(DispMiss)},
		DispCoalesced: {string(DispCoalesced)},
	}
)

// --- Jobs -------------------------------------------------------------------

// handleSubmitJob is POST /v1/jobs: validate like a solve, then enqueue the
// full simulated run. A full queue answers 429 with a Retry-After estimate;
// a draining server answers 503.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	rt := obs.FromContext(r.Context())
	rt.SetTenant(req.Tenant)
	req, _, _, _, _, err := s.canonical(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	_, qsp := obs.StartSpan(r.Context(), "queue.admit")
	qsp.SetInt("queue_depth", s.queue.depth())
	j, err := s.queue.submit(req, rt.Ref())
	qsp.Fail(err)
	switch e := err.(type) {
	case nil:
		qsp.End()
	case ErrQueueFull:
		qsp.SetInt("retry_after_s", e.RetryAfter)
		qsp.End()
		w.Header().Set("Retry-After", fmt.Sprint(e.RetryAfter))
		writeError(w, http.StatusTooManyRequests, CodeQueueFull,
			"job queue full (%d queued), retry after %ds", s.queue.depth(), e.RetryAfter)
		return
	default:
		qsp.End()
		if err == ErrDraining {
			writeError(w, http.StatusServiceUnavailable, CodeDraining, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleGetJob is GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// --- Attribution & recalibration --------------------------------------------

// handleAttrib is GET /v1/attrib/{system}: a deterministic snapshot of the
// system's attribution collector — the per-job energy ledger and the
// per-module drift table, with the currently flagged modules.
func (s *Server) handleAttrib(w http.ResponseWriter, r *http.Request) {
	b, ok := s.baseFor(r.PathValue("system"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"system %q not loaded (have %v)", r.PathValue("system"), s.servableNames())
		return
	}
	writeJSON(w, http.StatusOK, AttribResponse{
		System:     b.spec.Name,
		Generation: b.generation(),
		Report:     b.collector.Snapshot(),
	})
}

// handleRecalibrate is POST /v1/recalibrate: incremental PVT refresh. The
// module list defaults to whatever the drift detector currently flags; an
// explicit list lets an operator recalibrate on external evidence. Refusing
// an empty refresh (400) keeps the endpoint honest — a healthy system has
// nothing to splice — and so does refusing a listed id the system does not
// have (400), before any probe runs.
func (s *Server) handleRecalibrate(w http.ResponseWriter, r *http.Request) {
	var req RecalibrateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	b, ok := s.baseFor(req.System)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"system %q not loaded (have %v)", req.System, s.servableNames())
		return
	}
	if err := checkModuleIDs(req.Modules, b.framework().Sys.NumModules()); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "recalibrate: %v", err)
		return
	}
	modules := req.Modules
	if len(modules) == 0 {
		modules = b.collector.Snapshot().Flagged
	}
	if len(modules) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"nothing to recalibrate: no modules listed and the drift detector flags none")
		return
	}
	rep, gen, err := s.recalibrate(b, modules)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "recalibrate: %v", err)
		return
	}
	// The refreshed modules' drift windows restart empty: the detector
	// re-judges the spliced entries on post-refresh evidence only.
	b.collector.Reset(modules)
	resp := RecalibrateResponse{
		System:     b.spec.Name,
		Generation: gen,
		Report:     rep,
	}
	for _, m := range rep.Modules {
		resp.Modules = append(resp.Modules, m.Module)
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkModuleIDs reports the first id outside [0, n), the module ids of a
// system with n modules. Duplicates pass: RefreshPVT removes them.
func checkModuleIDs(ids []int, n int) error {
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("module %d outside [0,%d)", id, n)
		}
	}
	return nil
}

// recalibrate re-measures the given modules against the live PVT and swaps
// the refreshed table in. The probe runs on a pooled replica — it carries
// the base system's fault injector, so the re-measurement observes the same
// drifted hardware the jobs ran on — and the swap replaces the framework
// and replica pool together under the write lock, bumping the generation.
func (s *Server) recalibrate(b *baseSystem, modules []int) (*core.RefreshReport, uint64, error) {
	b.recalMu.Lock()
	defer b.recalMu.Unlock()
	fw, pool, _ := b.snapshot()
	probe := pool.Get()
	newPVT, rep, err := core.RefreshPVT(probe.Sys, fw.PVT, modules, s.cfg.Workers)
	pool.Put(probe)
	if err != nil {
		return nil, 0, err
	}
	next := &core.Framework{Sys: fw.Sys, PVT: newPVT, GPVT: fw.GPVT, Workers: fw.Workers}
	b.mu.Lock()
	b.fw = next
	b.pool = core.NewReplicaPool(next)
	b.gen++
	gen := b.gen
	b.mu.Unlock()
	return rep, gen, nil
}

// runJob executes one dequeued job: materialise the system, run the full
// pipeline (calibration, solve, enforced final run), record the measured
// result. Requests were canonicalised at submission, so failures here are
// genuine run failures (e.g. an infeasible budget), not validation gaps.
func (s *Server) runJob(j *job) {
	if s.testHookBeforeJob != nil {
		s.testHookBeforeJob()
	}
	req := j.req
	b, _ := s.baseFor(req.System) // canonicalised at submission: present
	// The executor continues the admission request's trace: its spans join
	// the same trace ID, parented under the admission root, so a merged
	// /v1/traces/{id} view reads as one tree across the async boundary.
	ctx, jrt := s.cfg.Obs.Continue(context.Background(), j.ref, "job.run")
	jrt.Root().SetAttr("job_id", j.id)
	res, err := func() (*JobResult, error) {
		bench, err := workload.ByName(req.Workload)
		if err != nil {
			return nil, err
		}
		scheme, err := core.SchemeByName(req.Scheme)
		if err != nil {
			return nil, err
		}
		fw, release, err := s.frameworkFor(req, b)
		if err != nil {
			return nil, err
		}
		defer release()
		if req.Seed == s.cfg.Seed && req.Faults == "" {
			// A run on the owned cluster state streams into the system's
			// attribution collector (ReplicaPool.Put detaches the hook).
			// Foreign seeds and ad-hoc fault levels are transient replicas —
			// attributing them would pollute the fleet's drift evidence.
			fw.Attrib = b.collector
			fw.Tenant = "jobs"
			if req.Tenant != "" {
				fw.Tenant = req.Tenant
			}
			fw.JobID = req.Workload
		}
		ids, err := fw.Sys.AllocateFirst(req.Modules)
		if err != nil {
			return nil, err
		}
		_, msp := obs.StartSpan(ctx, "measure")
		msp.SetAttr("kind", "final_run")
		msp.SetAttr("workload", req.Workload)
		fw.Trace = msp
		run, err := fw.Run(bench, ids, units.Watts(req.BudgetWatts), scheme)
		msp.Fail(err)
		if err != nil {
			msp.End()
			return nil, err
		}
		msp.SetAttr("elapsed_s", fmt.Sprintf("%.3f", float64(run.Result.Elapsed)))
		if run.Result.Degraded() {
			msp.SetAttr("degraded", "true")
		}
		msp.End()
		out := &JobResult{
			Alpha:     run.Alloc.Alpha,
			FreqHz:    float64(run.Alloc.Freq),
			ElapsedS:  float64(run.Result.Elapsed),
			AvgPowerW: float64(run.Result.AvgTotalPower),
			EnergyJ:   float64(run.Result.TotalEnergy),
			DeadRanks: run.Result.DeadRanks(),
			Degraded:  run.Result.Degraded(),
		}
		sort.Ints(out.DeadRanks)
		return out, nil
	}()
	status := http.StatusOK
	if err != nil {
		jrt.Root().Fail(err)
		status = http.StatusInternalServerError
	}
	// Commit the trace before the job turns done, so a client that waited
	// for the job finds its job.run entry.
	s.cfg.Obs.EndRequest(jrt, status)
	j.finish(res, err)
}

// Drain gracefully shuts the serving state down: stop the periodic
// snapshot loop, stop accepting jobs, finish the queued and in-flight ones
// up to ctx's deadline, then write a final snapshot of every built system
// — the state the next boot restores warm. The HTTP listener's own drain
// is the caller's (telemetry.Server's) concern — the sequence in
// cmd/varpowerd is listener first, then queue, then metrics flush.
func (s *Server) Drain(ctx context.Context) error {
	s.snapOnce.Do(func() {
		if s.snapStop != nil {
			close(s.snapStop)
		}
	})
	err := s.queue.drain(ctx)
	if s.cfg.StateDir != "" {
		if _, serr := s.Snapshot(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
