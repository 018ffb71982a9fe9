// Package obs is varpowerd's request-scoped observability layer: per-request
// tracing, structured logging and SLO burn-rate monitoring, dependency-free
// and threaded through the served path via context.Context.
//
// Where internal/telemetry instruments the simulator *in aggregate* —
// metric counters and phase histograms that belong on a dashboard — this
// package explains *one request*: where did this solve's latency go, which
// cache answered it, did it meet its objective — the per-request causality
// the paper's mitigation schemes need operators to see before they can
// trust them at scale.
//
// Tracing: every request gets a W3C trace context (128-bit trace ID, 64-bit
// span ID, parsed from and emitted as a `traceparent` header) whose spans —
// queue admission, singleflight cache lookup, PMT calibration, the
// alpha-solve, the measured run, attribution — are wall-clock timed and
// attribute-annotated. Finished traces land in a fixed-size ring with
// tail-based retention biased to slow and error requests: the interesting
// tail survives, the boring bulk is sampled by eviction.
//
// Logging: a log/slog JSON handler stamps every request line with
// trace_id/span_id/request_id correlation fields, so a log line, a trace
// and a client-side error report all join on the same identifiers.
//
// SLO: declarative latency/availability objectives per route, with
// multi-window (5 minute / 1 hour) burn rates computed over a bucketed
// clock that tests can drive synthetically. Burn rate 1.0 means the error
// budget is being spent exactly as fast as it accrues; sustained values
// above ~1 mean the objective will be missed.
//
// Everything here is presentation-layer: a nil *Observer disables the whole
// stack at zero per-request cost, and no method can change a served body.
package obs

import (
	"context"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises an Observer.
type Config struct {
	// RingSize bounds how many finished request traces are retained for
	// /v1/traces (default 256). Half the ring is reserved for slow/error
	// traces, so the interesting tail is never evicted by boring traffic.
	RingSize int
	// SlowThreshold classifies a request as "slow" for tail retention and
	// the SLO latency objective fallback (default 250ms).
	SlowThreshold time.Duration
	// Logger, when non-nil, receives one structured line per finished
	// request (and whatever else the embedding command routes through it).
	Logger *slog.Logger
	// Objectives declares the SLOs to monitor; nil selects DefaultObjectives.
	Objectives []Objective
	// Now overrides the clock (nil = time.Now). The SLO windows and span
	// timings follow it, so tests can drive simulated time.
	Now func() time.Time
	// IDSeed seeds trace/span/request ID generation; 0 derives a seed from
	// the clock. A fixed seed yields a reproducible ID sequence.
	IDSeed uint64
}

// Observer owns the tracing ring, the request logger and the SLO monitor.
// A nil *Observer is valid and disables everything: every method is
// nil-safe and the context helpers allocate nothing.
type Observer struct {
	cfg  Config
	now  func() time.Time
	ids  idSource
	ring *ring
	slo  *SLO
	seq  atomic.Uint64 // request-trace arrival order
}

// New builds an Observer. The zero Config is usable: default ring size,
// slow threshold, objectives, wall clock, no logger.
func New(cfg Config) *Observer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	o := &Observer{
		cfg:  cfg,
		now:  now,
		ring: newRing(cfg.RingSize),
	}
	o.ids.seed = cfg.IDSeed
	if o.ids.seed == 0 {
		o.ids.seed = uint64(now().UnixNano())
	}
	objectives := cfg.Objectives
	if objectives == nil {
		objectives = DefaultObjectives()
	}
	o.slo = newSLO(objectives, now)
	return o
}

// Enabled reports whether the observer is live (non-nil).
func (o *Observer) Enabled() bool { return o != nil }

// Logger returns the configured logger, or nil.
func (o *Observer) Logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.cfg.Logger
}

// NewRequestID draws a fresh request identifier ("r-" + 16 hex digits).
func (o *Observer) NewRequestID() string {
	if o == nil {
		return ""
	}
	var s SpanID
	s = o.ids.spanID()
	return "r-" + s.String()
}

// Attr is one span attribute. Attributes are an ordered list, not a map,
// so span export is deterministic.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one timed stage of a request: a node in the request's span tree.
// All methods are safe on a nil receiver, which is how call sites stay
// unconditional — when tracing is off every span is nil and every call a
// no-op.
type Span struct {
	rt     *RequestTrace
	id     SpanID
	parent SpanID // zero for the root span of an entry
	name   string
	start  time.Time
	dur    time.Duration
	done   bool
	errMsg string
	attrs  []Attr
}

// ID returns the span's identifier (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.rt.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.rt.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, val int) { s.SetAttr(key, strconv.Itoa(val)) }

// Fail marks the span as errored with the given error's message.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.rt.mu.Lock()
	s.errMsg = err.Error()
	s.rt.mu.Unlock()
}

// End finishes the span (idempotent).
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.rt.o.now()
	s.rt.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = end.Sub(s.start)
	}
	s.rt.mu.Unlock()
}

// RequestTrace is one traced request (or one traced continuation, e.g. the
// asynchronous execution of a queued job): the trace context plus the spans
// recorded under it. It is created by StartRequest/Continue and sealed by
// EndRequest, after which it is immutable and safe to export.
type RequestTrace struct {
	o            *Observer
	seq          uint64
	trace        TraceID
	requestID    string
	route        string
	method       string
	tenant       string
	remoteParent SpanID // parent span id carried in by traceparent (zero if none)
	start        time.Time

	mu     sync.Mutex
	spans  []*Span
	root   *Span
	status int
	dur    time.Duration
	done   bool
}

// TraceID returns the trace identifier.
func (rt *RequestTrace) TraceID() TraceID {
	if rt == nil {
		return TraceID{}
	}
	return rt.trace
}

// RequestID returns the request correlation ID (echoed as X-Request-ID).
func (rt *RequestTrace) RequestID() string {
	if rt == nil {
		return ""
	}
	return rt.requestID
}

// SetTenant labels the entry with a tenant after creation — the service
// middleware opens the trace before the request body (where the tenant
// rides) has been decoded.
func (rt *RequestTrace) SetTenant(tenant string) {
	if rt == nil || tenant == "" {
		return
	}
	rt.mu.Lock()
	rt.tenant = tenant
	rt.mu.Unlock()
}

// Root returns the entry's root span.
func (rt *RequestTrace) Root() *Span {
	if rt == nil {
		return nil
	}
	return rt.root
}

// Traceparent renders the trace context of the entry's root span — what a
// response header or an onward hop should carry.
func (rt *RequestTrace) Traceparent() string {
	if rt == nil {
		return ""
	}
	return Traceparent(rt.trace, rt.root.id)
}

// Ref captures the context needed to continue this trace elsewhere (the job
// queue hands it from the admission request to the executor).
type Ref struct {
	Trace     TraceID
	Parent    SpanID
	RequestID string
	Tenant    string
}

// Ref returns the continuation reference rooted at this entry's root span.
func (rt *RequestTrace) Ref() Ref {
	if rt == nil {
		return Ref{}
	}
	return Ref{Trace: rt.trace, Parent: rt.root.id, RequestID: rt.requestID, Tenant: rt.tenant}
}

// newSpan appends a span to the entry.
func (rt *RequestTrace) newSpan(name string, parent SpanID) *Span {
	sp := &Span{rt: rt, id: rt.o.ids.spanID(), parent: parent, name: name, start: rt.o.now()}
	rt.mu.Lock()
	rt.spans = append(rt.spans, sp)
	rt.mu.Unlock()
	return sp
}

// Request describes one incoming request for StartRequest.
type Request struct {
	Method string
	Route  string
	// Traceparent is the incoming W3C header (empty or malformed starts a
	// fresh trace).
	Traceparent string
	// RequestID is the incoming X-Request-ID (empty generates one).
	RequestID string
	// Tenant labels the trace and log line (empty omits the field).
	Tenant string
}

// ctxKey keys the active trace scope in a context.
type ctxKey struct{}

// scope is the context-carried position in a request's span tree.
type scope struct {
	rt     *RequestTrace
	parent SpanID
}

// StartRequest opens a trace entry for an incoming request: the trace
// context is adopted from a valid traceparent or freshly created, the
// request ID is echoed or generated, and the returned context carries the
// root span as the active parent for StartSpan. Nil observers return the
// context unchanged and a nil entry.
func (o *Observer) StartRequest(ctx context.Context, req Request) (context.Context, *RequestTrace) {
	if o == nil {
		return ctx, nil
	}
	rt := &RequestTrace{
		o:         o,
		seq:       o.seq.Add(1),
		route:     req.Route,
		method:    req.Method,
		tenant:    req.Tenant,
		requestID: req.RequestID,
		start:     o.now(),
	}
	if tid, parent, _, err := ParseTraceparent(req.Traceparent); err == nil {
		rt.trace, rt.remoteParent = tid, parent
	} else {
		rt.trace = o.ids.traceID()
	}
	if rt.requestID == "" {
		rt.requestID = o.NewRequestID()
	}
	rt.root = rt.newSpan(req.Route, rt.remoteParent)
	return context.WithValue(ctx, ctxKey{}, &scope{rt: rt, parent: rt.root.id}), rt
}

// Continue opens a trace entry that continues an existing trace (a queued
// job resuming the trace of its admission request). The entry's root span
// is parented under ref.Parent, so the merged trace reads as one tree.
func (o *Observer) Continue(ctx context.Context, ref Ref, route string) (context.Context, *RequestTrace) {
	if o == nil || ref.Trace.IsZero() {
		return ctx, nil
	}
	rt := &RequestTrace{
		o:         o,
		seq:       o.seq.Add(1),
		trace:     ref.Trace,
		route:     route,
		tenant:    ref.Tenant,
		requestID: ref.RequestID,
		start:     o.now(),
	}
	rt.root = rt.newSpan(route, ref.Parent)
	return context.WithValue(ctx, ctxKey{}, &scope{rt: rt, parent: rt.root.id}), rt
}

// StartSpan opens a child span under the context's active parent and
// returns a context in which it is the new parent. Without an active trace
// (tracing disabled, or a context that never passed through StartRequest)
// it returns the context unchanged and a nil span, at zero allocation.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sc, _ := ctx.Value(ctxKey{}).(*scope)
	if sc == nil {
		return ctx, nil
	}
	sp := sc.rt.newSpan(name, sc.parent)
	return context.WithValue(ctx, ctxKey{}, &scope{rt: sc.rt, parent: sp.id}), sp
}

// FromContext returns the context's active trace entry (nil when tracing is
// off) — call sites use it for log correlation fields and exemplars.
func FromContext(ctx context.Context) *RequestTrace {
	sc, _ := ctx.Value(ctxKey{}).(*scope)
	if sc == nil {
		return nil
	}
	return sc.rt
}

// EndRequest seals a trace entry: the root span ends, the entry is
// classified (slow/error) and retained in the ring, the SLO monitor
// observes the outcome, and the request logger emits one structured line.
// status is the HTTP status code (continuation entries use 200/500).
func (o *Observer) EndRequest(rt *RequestTrace, status int) {
	if o == nil || rt == nil {
		return
	}
	rt.root.End()
	rt.mu.Lock()
	if rt.done {
		rt.mu.Unlock()
		return
	}
	rt.done = true
	rt.status = status
	rt.dur = rt.root.dur
	dur := rt.dur
	rt.mu.Unlock()

	important := status >= 500 || status == 429 || dur >= o.cfg.SlowThreshold
	o.ring.add(rt, important)
	o.slo.Record(rt.route, dur, status)
	o.logRequest(rt, status, dur)
}

// Important reports whether the sealed entry was classified slow or error.
func (rt *RequestTrace) Important() bool {
	if rt == nil {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.status >= 500 || rt.status == 429 || rt.dur >= rt.o.cfg.SlowThreshold
}

// Traces snapshots the retained trace entries, oldest first.
func (o *Observer) Traces() []*RequestTrace {
	if o == nil {
		return nil
	}
	return o.ring.snapshot()
}

// Lookup returns every retained entry of one trace (a job's admission
// request and its execution continuation share a trace ID), oldest first.
func (o *Observer) Lookup(id TraceID) []*RequestTrace {
	if o == nil {
		return nil
	}
	return o.ring.lookup(id)
}

// SLOReport snapshots the SLO monitor (nil observer returns nil).
func (o *Observer) SLOReport() *SLOReport {
	if o == nil {
		return nil
	}
	return o.slo.Report()
}

// RecordSLO folds one externally observed outcome into a monitored route's
// burn windows — the hook for callers that watch work the HTTP middleware
// never sees, like the shard router recording per-shard proxy outcomes
// under synthetic "shard:<name>" routes. Routes without an objective (and a
// nil observer) are ignored, matching the middleware's behaviour.
func (o *Observer) RecordSLO(route string, dur time.Duration, status int) {
	if o == nil {
		return
	}
	o.slo.Record(route, dur, status)
}

// PublishSLO refreshes the varpower_slo_* telemetry gauges from the current
// burn rates (the pull-model hook the metrics endpoints call).
func (o *Observer) PublishSLO() {
	if o == nil {
		return
	}
	o.slo.Publish()
}

// logRequest emits the per-request structured log line.
func (o *Observer) logRequest(rt *RequestTrace, status int, dur time.Duration) {
	lg := o.cfg.Logger
	if lg == nil {
		return
	}
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	}
	attrs := make([]slog.Attr, 0, 8)
	if rt.method != "" {
		attrs = append(attrs, slog.String("method", rt.method))
	}
	attrs = append(attrs,
		slog.String("route", rt.route),
		slog.Int("status", status),
		slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
		slog.String("trace_id", rt.trace.String()),
		slog.String("span_id", rt.root.id.String()),
		slog.String("request_id", rt.requestID),
	)
	if rt.tenant != "" {
		attrs = append(attrs, slog.String("tenant", rt.tenant))
	}
	lg.LogAttrs(context.Background(), level, "request", attrs...)
}
