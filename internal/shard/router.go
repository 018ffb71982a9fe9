package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"varpower/internal/obs"
	"varpower/internal/service"
	"varpower/internal/service/client"
	"varpower/internal/telemetry"
	"varpower/internal/xrand"
)

// Router-layer telemetry: the varpower_shard_* family. Per-shard health and
// breaker position are gauges (current state); proxied requests, probes and
// failovers are counters.
func shardGauges(name string) (healthy, breaker *telemetry.Gauge) {
	reg := telemetry.Default()
	l := telemetry.Labels{"shard": name}
	healthy = reg.Gauge("varpower_shard_healthy",
		"Whether the shard's last health probe succeeded (1) or failed (0).", l)
	breaker = reg.Gauge("varpower_shard_breaker_state",
		"The shard's circuit-breaker position: 0 closed, 1 open, 2 half-open.", l)
	return
}

// RouterConfig parameterises a Router.
type RouterConfig struct {
	// Set is the shard fleet (required).
	Set *Set
	// Obs enables router request tracing and per-shard SLO burn monitoring
	// (routes "shard:<name>"); nil disables both.
	Obs *obs.Observer
	// ProbeInterval is the health-check cadence (default 250ms); 0 < x.
	// ProbeTimeout bounds one probe (default ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Breaker parameterises every shard's circuit breaker; the zero value
	// selects the defaults (trip after 3, 500ms..10s jittered backoff).
	Breaker BreakerConfig
	// NewClient builds the per-shard client (default client.New; injectable
	// for tests).
	NewClient func(addr string) *client.Client
}

// shardState is the router's view of one member.
type shardState struct {
	member  Member
	client  *client.Client
	breaker *Breaker
	healthy atomic.Bool

	mHealthy, mBreaker *telemetry.Gauge
	mRequests          sync.Map // status code (0: transport error) → *telemetry.Counter
}

// requests returns the shard's varpower_shard_requests_total series for a
// proxied request's status (0 for a transport error), resolved from the
// registry once per status.
func (ss *shardState) requests(status int) *telemetry.Counter {
	c, ok := ss.mRequests.Load(status)
	if !ok {
		code := "error"
		if status != 0 {
			code = strconv.Itoa(status)
		}
		c, _ = ss.mRequests.LoadOrStore(status, telemetry.Default().Counter("varpower_shard_requests_total",
			"Requests proxied to shards, by shard and status code.",
			telemetry.Labels{"shard": ss.member.Name, "code": code}))
	}
	return c.(*telemetry.Counter)
}

// setBreakerGauge publishes the breaker position.
func (ss *shardState) publish() {
	if ss.healthy.Load() {
		ss.mHealthy.Set(1)
	} else {
		ss.mHealthy.Set(0)
	}
	ss.mBreaker.Set(float64(ss.breaker.State()))
}

// Router proxies varpowerd's control-plane API across a shard set: each
// request routes to the owning shard (rendezvous primary), failing over to
// the designated secondary when the primary's breaker is open or its
// forward fails at the transport level. The proxy relays raw bytes, so the
// shards' byte-identical solve bodies — and their X-Varpower-Cache /
// Retry-After headers — survive the hop untouched.
type Router struct {
	cfg    RouterConfig
	shards []*shardState
	byName map[string]*shardState
	mux    *http.ServeMux
	start  time.Time

	// jobMu guards jobOwner: job IDs are minted by the owning shard at
	// submission, so polls must return to the same shard. Bounded FIFO; a
	// poll for an evicted (or router-restart-lost) ID fans out.
	jobMu    sync.Mutex
	jobOwner map[string]string
	jobOrder []string

	mFailovers  *telemetry.Counter
	mExhausted  *telemetry.Counter
	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// maxTrackedJobs bounds the job-owner map.
const maxTrackedJobs = 4096

// NewRouter builds a router over the set. Call Start to begin health
// probing, Stop to end it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Set == nil || cfg.Set.Len() == 0 {
		return nil, fmt.Errorf("shard: router needs a non-empty shard set")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.NewClient == nil {
		cfg.NewClient = client.New
	}
	reg := telemetry.Default()
	r := &Router{
		cfg:      cfg,
		byName:   make(map[string]*shardState),
		jobOwner: make(map[string]string),
		start:    time.Now(),
		mFailovers: reg.Counter("varpower_shard_failovers_total",
			"Requests the router answered from a non-primary shard.", nil),
		mExhausted: reg.Counter("varpower_shard_exhausted_total",
			"Requests that failed on every candidate shard (answered 503).", nil),
	}
	for _, m := range cfg.Set.Members() {
		bc := cfg.Breaker
		if bc.JitterSeed == 0 {
			bc.JitterSeed = xrand.HashString(m.Name)
		}
		ss := &shardState{member: m, client: cfg.NewClient(m.Addr), breaker: NewBreaker(bc)}
		ss.healthy.Store(true) // optimistic until the first probe says otherwise
		ss.mHealthy, ss.mBreaker = shardGauges(m.Name)
		ss.publish()
		r.shards = append(r.shards, ss)
		r.byName[m.Name] = ss
	}
	r.mux = r.routes()
	return r, nil
}

// Objectives returns per-shard availability objectives ("shard:<name>"
// routes) plus the default route objectives — the SLO set a router's
// observer should be built with.
func Objectives(s *Set) []obs.Objective {
	objs := obs.DefaultObjectives()
	for _, m := range s.Members() {
		objs = append(objs, obs.Objective{Route: "shard:" + m.Name, Availability: 0.999})
	}
	return objs
}

// Handler returns the router's route set.
func (r *Router) Handler() http.Handler { return r.mux }

// Start launches the health-probe loop.
func (r *Router) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.probeCancel = cancel
	r.probeDone = make(chan struct{})
	go r.probeLoop(ctx)
}

// Stop ends the probe loop.
func (r *Router) Stop() {
	if r.probeCancel != nil {
		r.probeCancel()
		<-r.probeDone
	}
}

// probeLoop health-checks every shard each interval. Probe outcomes feed
// the breakers: a probe success closes a shard's breaker immediately (the
// recovery path after a restart — no live request has to gamble first),
// and probe failures accumulate toward a trip exactly like request
// failures.
func (r *Router) probeLoop(ctx context.Context) {
	defer close(r.probeDone)
	probes := func(name, outcome string) *telemetry.Counter {
		return telemetry.Default().Counter("varpower_shard_probes_total",
			"Shard health probes, by shard and outcome.",
			telemetry.Labels{"shard": name, "outcome": outcome})
	}
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, ss := range r.shards {
			pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
			_, err := ss.client.Healthz(pctx)
			cancel()
			if err != nil {
				ss.healthy.Store(false)
				ss.breaker.Failure()
				probes(ss.member.Name, "fail").Inc()
			} else {
				ss.healthy.Store(true)
				ss.breaker.Success()
				probes(ss.member.Name, "ok").Inc()
			}
			ss.publish()
		}
	}
}

// routes wires the router's endpoint table.
func (r *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /v1/shards", r.handleShards)
	mux.HandleFunc("GET /v1/systems", r.handleSystems)
	mux.HandleFunc("POST /v1/solve", r.systemRouted("/v1/solve"))
	mux.HandleFunc("POST /v1/recalibrate", r.systemRouted("/v1/recalibrate"))
	mux.HandleFunc("POST /v1/jobs", r.systemRouted("/v1/jobs"))
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleGetJob)
	mux.HandleFunc("GET /v1/pvt/{system}", r.pathRouted("/v1/pvt"))
	mux.HandleFunc("GET /v1/attrib/{system}", r.pathRouted("/v1/attrib"))
	mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	mux.HandleFunc("GET /v1/slo", r.handleSLO)
	mux.HandleFunc("GET /v1/traces", r.handleTraces)
	mux.HandleFunc("POST /v1/snapshot", r.handleSnapshot)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		writeErr(w, http.StatusNotFound, service.CodeNotFound,
			"no route for %s %s", req.Method, req.URL.Path)
	})
	return mux
}

// writeErr renders the service's structured error body.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&service.APIError{Err: service.ErrorBody{
		Status: status, Code: code, Message: fmt.Sprintf(format, args...),
	}})
}

// writeOK renders a JSON body.
func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealthz reports the router's own liveness plus the fleet's.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	shards := make(map[string]bool, len(r.shards))
	healthyN := 0
	for _, ss := range r.shards {
		h := ss.healthy.Load()
		shards[ss.member.Name] = h
		if h {
			healthyN++
		}
	}
	writeOK(w, map[string]any{
		"status":   "ok",
		"role":     "router",
		"uptime_s": int64(time.Since(r.start).Seconds()),
		"healthy":  healthyN,
		"shards":   shards,
	})
}

// ShardStatus is one /v1/shards row.
type ShardStatus struct {
	Name    string `json:"name"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
}

// handleShards reports each member's health and breaker position.
func (r *Router) handleShards(w http.ResponseWriter, _ *http.Request) {
	out := make([]ShardStatus, 0, len(r.shards))
	for _, ss := range r.shards {
		out = append(out, ShardStatus{
			Name:    ss.member.Name,
			Addr:    ss.member.Addr,
			Healthy: ss.healthy.Load(),
			Breaker: ss.breaker.State().String(),
		})
	}
	writeOK(w, map[string]any{"shards": out})
}

// handleSystems merges the fleet's system lists: each shard reports the
// systems it has built, deduplicated by name (the primary's row wins by
// iteration order of the ranked shards per system; in practice only one
// shard has built any given system until a failover).
func (r *Router) handleSystems(w http.ResponseWriter, req *http.Request) {
	seen := make(map[string]bool)
	var merged []json.RawMessage
	for _, ss := range r.shards {
		if !ss.healthy.Load() || !ss.breaker.Allow() {
			continue
		}
		fwd, err := ss.client.Forward(req.Context(), http.MethodGet, "/v1/systems", nil, nil)
		if err != nil {
			ss.breaker.Failure()
			continue
		}
		ss.breaker.Success()
		if fwd.Status != http.StatusOK {
			continue
		}
		var body struct {
			Systems []json.RawMessage `json:"systems"`
		}
		if json.Unmarshal(fwd.Body, &body) != nil {
			continue
		}
		for _, row := range body.Systems {
			var id struct {
				Name string `json:"name"`
			}
			if json.Unmarshal(row, &id) != nil || seen[id.Name] {
				continue
			}
			seen[id.Name] = true
			merged = append(merged, row)
		}
	}
	writeOK(w, map[string]any{"systems": merged})
}

// handleSnapshot fans the snapshot request out to every healthy shard.
func (r *Router) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	out := make(map[string]any, len(r.shards))
	status := http.StatusOK
	for _, ss := range r.shards {
		if !ss.healthy.Load() {
			out[ss.member.Name] = map[string]any{"error": "unhealthy"}
			continue
		}
		fwd, err := ss.client.Forward(req.Context(), http.MethodPost, "/v1/snapshot", nil, nil)
		if err != nil {
			out[ss.member.Name] = map[string]any{"error": err.Error()}
			status = http.StatusInternalServerError
			continue
		}
		out[ss.member.Name] = json.RawMessage(fwd.Body)
		if fwd.Status != http.StatusOK {
			status = fwd.Status
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"shards": out})
}

// handleMetrics re-exports the router process's telemetry registry (the
// varpower_shard_* family lives here, not on the shards).
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	r.cfg.Obs.PublishSLO()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.Write(w, telemetry.Default(), telemetry.FormatPrometheus)
}

// handleSLO serves the router's burn-rate report — the per-shard
// "shard:<name>" routes plus anything else its observer monitors.
func (r *Router) handleSLO(w http.ResponseWriter, _ *http.Request) {
	if !r.cfg.Obs.Enabled() {
		writeErr(w, http.StatusNotFound, service.CodeNotFound, "SLO monitoring is disabled")
		return
	}
	r.cfg.Obs.PublishSLO()
	writeOK(w, r.cfg.Obs.SLOReport())
}

// handleTraces serves the router's retained request traces.
func (r *Router) handleTraces(w http.ResponseWriter, _ *http.Request) {
	o := r.cfg.Obs
	if !o.Enabled() {
		writeErr(w, http.StatusNotFound, service.CodeNotFound, "request tracing is disabled")
		return
	}
	entries := o.Traces()
	views := make([]obs.TraceView, 0, len(entries))
	for _, rt := range entries {
		views = append(views, rt.View())
	}
	writeOK(w, map[string]any{"traces": views})
}

// passthroughHeaders are the request headers a proxy must relay: trace
// context (the shard's spans join the caller's trace), request correlation
// and content type.
var passthroughHeaders = []string{"Traceparent", "X-Request-Id", "Content-Type"}

// relayHeaders are the response headers relayed back to the caller.
var relayHeaders = []string{"Content-Type", "X-Varpower-Cache", "Retry-After", "Traceparent", "X-Request-Id"}

// systemRouted builds a handler for a POST endpoint routed by the request
// body's "system" field.
func (r *Router) systemRouted(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
		if err != nil {
			writeErr(w, http.StatusBadRequest, service.CodeBadRequest, "read body: %v", err)
			return
		}
		var peek struct {
			System string `json:"system"`
		}
		if err := json.Unmarshal(body, &peek); err != nil || strings.TrimSpace(peek.System) == "" {
			writeErr(w, http.StatusBadRequest, service.CodeBadRequest,
				"request must carry a JSON body with a \"system\" field")
			return
		}
		r.forward(w, req, peek.System, req.Method, path, body)
	}
}

// pathRouted builds a handler for a GET endpoint routed by the {system}
// path segment.
func (r *Router) pathRouted(prefix string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		system := req.PathValue("system")
		r.forward(w, req, system, http.MethodGet, prefix+"/"+system, nil)
	}
}

// forward proxies one request to system's ranked shards: the primary
// unless its breaker refuses, then the designated secondary. Only
// transport-level failures advance down the ranking — an HTTP error from a
// live shard IS the answer (the shard's 4xx/5xx semantics must survive the
// proxy). When every candidate fails the caller gets 503 + Retry-After,
// which keeps a total shard outage inside the 429/503 shed-load budget —
// never a hung request, never a raw transport error.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, system, method, path string, body []byte) {
	ctx := req.Context()
	var rt *obs.RequestTrace
	o := r.cfg.Obs
	if o.Enabled() {
		ctx2, t := o.StartRequest(ctx, obs.Request{
			Method:      method,
			Route:       path,
			Traceparent: req.Header.Get("Traceparent"),
			RequestID:   req.Header.Get("X-Request-Id"),
		})
		ctx, rt = ctx2, t
	}
	status := r.forwardRanked(ctx, w, req, system, method, path, body)
	if rt != nil {
		o.EndRequest(rt, status)
	}
}

// forwardRanked is forward's body; returns the status answered.
func (r *Router) forwardRanked(ctx context.Context, w http.ResponseWriter, req *http.Request, system, method, path string, body []byte) int {
	hdr := make(http.Header, len(passthroughHeaders))
	for _, k := range passthroughHeaders {
		if v := req.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	ranked := r.cfg.Set.RankFor(system)
	if len(ranked) > 2 {
		ranked = ranked[:2] // primary + designated secondary only
	}
	for i, m := range ranked {
		ss := r.byName[m.Name]
		if !ss.breaker.Allow() {
			continue
		}
		_, sp := obs.StartSpan(ctx, "proxy")
		sp.SetAttr("shard", m.Name)
		sp.SetAttr("path", path)
		start := time.Now()
		fwd, err := ss.client.Forward(ctx, method, path, body, hdr)
		dur := time.Since(start)
		if err != nil {
			ss.breaker.Failure()
			ss.publish()
			sp.Fail(err)
			sp.End()
			ss.requests(0).Inc()
			r.cfg.Obs.RecordSLO("shard:"+m.Name, dur, http.StatusBadGateway)
			continue
		}
		ss.breaker.Success()
		ss.publish()
		sp.SetInt("status", fwd.Status)
		if i > 0 {
			sp.SetAttr("failover", "true")
			r.mFailovers.Inc()
		}
		sp.End()
		ss.requests(fwd.Status).Inc()
		r.cfg.Obs.RecordSLO("shard:"+m.Name, dur, fwd.Status)
		if path == "/v1/jobs" && fwd.Status == http.StatusAccepted {
			r.recordJobOwner(fwd.Body, m.Name)
		}
		relay(w, fwd, m.Name)
		return fwd.Status
	}
	r.mExhausted.Inc()
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, service.CodeDraining,
		"no shard available for system %q (primary and secondary down)", system)
	return http.StatusServiceUnavailable
}

// recordJobOwner remembers which shard minted a job ID (bounded FIFO).
func (r *Router) recordJobOwner(body []byte, shard string) {
	var st struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &st) != nil || st.ID == "" {
		return
	}
	r.jobMu.Lock()
	defer r.jobMu.Unlock()
	if _, dup := r.jobOwner[st.ID]; !dup {
		r.jobOrder = append(r.jobOrder, st.ID)
	}
	r.jobOwner[st.ID] = shard
	for len(r.jobOrder) > maxTrackedJobs {
		delete(r.jobOwner, r.jobOrder[0])
		r.jobOrder = r.jobOrder[1:]
	}
}

// handleGetJob routes a job poll to the shard that minted the ID; an
// untracked ID (router restarted, entry evicted) fans out and relays the
// first non-404 answer.
func (r *Router) handleGetJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	path := "/v1/jobs/" + id
	r.jobMu.Lock()
	owner, tracked := r.jobOwner[id]
	r.jobMu.Unlock()
	if tracked {
		if ss, ok := r.byName[owner]; ok && ss.breaker.Allow() {
			fwd, err := ss.client.Forward(req.Context(), http.MethodGet, path, nil, nil)
			if err == nil {
				ss.breaker.Success()
				relay(w, fwd, ss.member.Name)
				return
			}
			ss.breaker.Failure()
		}
	}
	for _, ss := range r.shards {
		if ss.member.Name == owner || !ss.breaker.Allow() {
			continue
		}
		fwd, err := ss.client.Forward(req.Context(), http.MethodGet, path, nil, nil)
		if err != nil {
			ss.breaker.Failure()
			continue
		}
		ss.breaker.Success()
		if fwd.Status == http.StatusNotFound {
			continue
		}
		relay(w, fwd, ss.member.Name)
		return
	}
	writeErr(w, http.StatusNotFound, service.CodeNotFound, "no shard knows job %q", id)
}

// relay copies a forwarded response to the caller. The body is buffered
// whole, so it goes out with its length rather than chunked.
func relay(w http.ResponseWriter, fwd *client.Forwarded, shard string) {
	h := w.Header()
	for _, k := range relayHeaders {
		if v := fwd.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Varpower-Shard", shard)
	h.Set("Content-Length", strconv.Itoa(len(fwd.Body)))
	w.WriteHeader(fwd.Status)
	_, _ = w.Write(fwd.Body)
}
