package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	o := New(Config{IDSeed: 7})
	tid := o.ids.traceID()
	sid := o.ids.spanID()
	h := Traceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
	}
	gt, gs, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gt != tid || gs != sid || !sampled {
		t.Fatalf("round trip: got (%s,%s,%v), want (%s,%s,true)", gt, gs, sampled, tid, sid)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",       // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",       // zero span
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",       // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // too long
		"00+0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // bad dash
		"00-0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331-01",       // bad dash
	}
	for _, h := range bad {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q): want error, got nil", h)
		}
	}
}

func TestIDSourceDeterministicAndNonZero(t *testing.T) {
	a, b := &idSource{seed: 42}, &idSource{seed: 42}
	for i := 0; i < 100; i++ {
		at, bt := a.traceID(), b.traceID()
		if at != bt {
			t.Fatalf("draw %d: same seed diverged: %s vs %s", i, at, bt)
		}
		if at.IsZero() {
			t.Fatalf("draw %d: zero trace id", i)
		}
	}
	if a.spanID().IsZero() {
		t.Fatal("zero span id")
	}
}

// TestSpanTreeWellFormedConcurrent drives 32 concurrent traced requests and
// asserts every retained entry is a well-formed tree: exactly one root, and
// every non-root span's parent exists within the entry.
func TestSpanTreeWellFormedConcurrent(t *testing.T) {
	o := New(Config{RingSize: 128, IDSeed: 1})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, rt := o.StartRequest(context.Background(), Request{
				Method: "POST", Route: "/v1/solve", Tenant: fmt.Sprintf("t%d", i%4),
			})
			_, q := StartSpan(ctx, "queue.admit")
			q.SetInt("queue_depth", i)
			q.End()
			ctx, c := StartSpan(ctx, "cache")
			c.SetAttr("cache", "miss")
			_, s := StartSpan(ctx, "solve")
			s.End()
			c.End()
			o.EndRequest(rt, 200)
		}(i)
	}
	wg.Wait()

	traces := o.Traces()
	if len(traces) != 32 {
		t.Fatalf("retained %d traces, want 32", len(traces))
	}
	for _, rt := range traces {
		v := rt.View()
		ids := make(map[string]bool, len(v.Spans))
		for _, sp := range v.Spans {
			if ids[sp.SpanID] {
				t.Fatalf("trace %s: duplicate span id %s", v.TraceID, sp.SpanID)
			}
			ids[sp.SpanID] = true
		}
		roots := 0
		for _, sp := range v.Spans {
			if sp.ParentID == "" {
				roots++
				continue
			}
			if !ids[sp.ParentID] {
				t.Fatalf("trace %s: span %s (%s) orphaned: parent %s not in entry",
					v.TraceID, sp.SpanID, sp.Name, sp.ParentID)
			}
		}
		if roots != 1 {
			t.Fatalf("trace %s: %d roots, want 1 (spans: %+v)", v.TraceID, roots, v.Spans)
		}
		// solve must nest under cache, cache and queue under the root.
		byName := map[string]SpanView{}
		for _, sp := range v.Spans {
			byName[sp.Name] = sp
		}
		if byName["solve"].ParentID != byName["cache"].SpanID {
			t.Fatalf("trace %s: solve parented under %s, want cache %s",
				v.TraceID, byName["solve"].ParentID, byName["cache"].SpanID)
		}
		if byName["cache"].ParentID != byName["/v1/solve"].SpanID {
			t.Fatalf("trace %s: cache not parented under root", v.TraceID)
		}
	}
}

// TestTailRetentionDeterministic floods a small ring with boring traffic and
// a sparse set of error/slow requests, and asserts every important entry
// survives while the normal side holds exactly the most recent normals.
func TestTailRetentionDeterministic(t *testing.T) {
	clock := time.Unix(1000, 0)
	o := New(Config{
		RingSize:      8, // 4 normal + 4 important slots
		SlowThreshold: 100 * time.Millisecond,
		IDSeed:        3,
		Now:           func() time.Time { return clock },
	})
	var important []string
	for i := 0; i < 50; i++ {
		_, rt := o.StartRequest(context.Background(), Request{Route: "/v1/solve"})
		status := 200
		switch {
		case i == 7, i == 23: // errors
			status = 500
		case i == 31: // shed load
			status = 429
		case i == 40: // slow
			clock = clock.Add(150 * time.Millisecond)
		default:
			clock = clock.Add(time.Millisecond)
		}
		o.EndRequest(rt, status)
		if rt.Important() {
			important = append(important, rt.TraceID().String())
		}
	}
	if len(important) != 4 {
		t.Fatalf("classified %d important, want 4", len(important))
	}
	got := map[string]bool{}
	var normals int
	for _, rt := range o.Traces() {
		if rt.Important() {
			got[rt.TraceID().String()] = true
		} else {
			normals++
		}
	}
	for _, id := range important {
		if !got[id] {
			t.Errorf("important trace %s evicted; ring must keep every error/slow entry", id)
		}
	}
	if normals != 4 {
		t.Errorf("retained %d normal traces, want 4 (ring half)", normals)
	}
}

func TestContinueMergesUnderParent(t *testing.T) {
	o := New(Config{IDSeed: 9})
	ctx, rt := o.StartRequest(context.Background(), Request{Method: "POST", Route: "/v1/jobs", Tenant: "acme"})
	_, admit := StartSpan(ctx, "queue.admit")
	admit.End()
	ref := rt.Ref()
	o.EndRequest(rt, 202)

	jctx, jrt := o.Continue(context.Background(), ref, "job.run")
	_, m := StartSpan(jctx, "measure.run")
	m.End()
	o.EndRequest(jrt, 200)

	entries := o.Lookup(rt.TraceID())
	if len(entries) != 2 {
		t.Fatalf("Lookup: %d entries, want 2 (admission + continuation)", len(entries))
	}
	cv := entries[1].View()
	if cv.Route != "job.run" {
		t.Fatalf("continuation route %q, want job.run", cv.Route)
	}
	if cv.TraceID != rt.TraceID().String() {
		t.Fatalf("continuation trace %s, want %s", cv.TraceID, rt.TraceID())
	}
	if cv.RequestID != rt.RequestID() {
		t.Fatalf("continuation request id %q, want %q", cv.RequestID, rt.RequestID())
	}
	if want := rt.Root().ID().String(); cv.Spans[0].ParentID != want {
		t.Fatalf("continuation root parented under %q, want admission root %q", cv.Spans[0].ParentID, want)
	}
	if cv.Tenant != "acme" {
		t.Fatalf("continuation tenant %q, want acme", cv.Tenant)
	}
}

func TestDisabledObserverIsNoOp(t *testing.T) {
	var o *Observer
	ctx, rt := o.StartRequest(context.Background(), Request{Route: "/v1/solve"})
	if rt != nil {
		t.Fatal("nil observer returned a trace entry")
	}
	ctx2, sp := StartSpan(ctx, "cache")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan on untraced context must be identity")
	}
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.Fail(fmt.Errorf("x"))
	sp.End()
	o.EndRequest(rt, 200)
	if o.Traces() != nil || o.SLOReport() != nil || o.Enabled() {
		t.Fatal("nil observer must report nothing")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on untraced context must be nil")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c, s := StartSpan(context.Background(), "x")
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %.1f/op, want 0", allocs)
	}
}

func TestSLOBurnMath(t *testing.T) {
	clock := time.Unix(10_000, 0)
	o := New(Config{
		IDSeed: 5,
		Now:    func() time.Time { return clock },
		Objectives: []Objective{
			{Route: "/v1/solve", LatencyBound: 100 * time.Millisecond, LatencyGoal: 0.99, Availability: 0.999},
		},
	})
	// 100 requests: 1 error, 2 slow, rest good — in one 5m window.
	for i := 0; i < 100; i++ {
		status, dur := 200, 10*time.Millisecond
		if i == 3 {
			status = 500
		}
		if i == 10 || i == 20 {
			dur = 200 * time.Millisecond
		}
		o.slo.Record("/v1/solve", dur, status)
		clock = clock.Add(time.Second)
	}
	rep := o.SLOReport()
	rr := rep.Route("/v1/solve")
	if rr == nil {
		t.Fatal("no /v1/solve route report")
	}
	if rr.Total != 100 || rr.Bad != 1 || rr.Slow != 2 {
		t.Fatalf("lifetime: total=%d bad=%d slow=%d, want 100/1/2", rr.Total, rr.Bad, rr.Slow)
	}
	for _, w := range rr.Windows {
		// availability burn: (1/100)/(0.001) = 10; latency burn: (2/100)/(0.01) = 2.
		if w.Total != 100 {
			t.Fatalf("window %s: total %d, want 100", w.Window, w.Total)
		}
		if got, want := w.AvailabilityBurn, 10.0; !closeTo(got, want) {
			t.Errorf("window %s availability burn %.3f, want %.3f", w.Window, got, want)
		}
		if got, want := w.LatencyBurn, 2.0; !closeTo(got, want) {
			t.Errorf("window %s latency burn %.3f, want %.3f", w.Window, got, want)
		}
	}
	if got := rr.MaxBurn(); !closeTo(got, 10.0) {
		t.Errorf("MaxBurn %.3f, want 10", got)
	}

	// Advance 6 minutes with clean traffic: 5m window burn decays toward
	// zero while the 1h window still remembers.
	for i := 0; i < 360; i++ {
		o.slo.Record("/v1/solve", 10*time.Millisecond, 200)
		clock = clock.Add(time.Second)
	}
	rr = o.SLOReport().Route("/v1/solve")
	var w5, w1h WindowBurn
	for _, w := range rr.Windows {
		if w.Window == "5m0s" || w.Window == "5m" {
			w5 = w
		} else {
			w1h = w
		}
	}
	if w5.AvailabilityBurn != 0 {
		t.Errorf("5m availability burn %.3f after clean traffic, want 0", w5.AvailabilityBurn)
	}
	if w1h.AvailabilityBurn == 0 {
		t.Errorf("1h availability burn zero, want > 0 (window must remember the error)")
	}
}

func TestSLOShedLoadBurns(t *testing.T) {
	clock := time.Unix(500, 0)
	o := New(Config{IDSeed: 2, Now: func() time.Time { return clock }})
	for i := 0; i < 10; i++ {
		o.slo.Record("/v1/jobs", time.Millisecond, 429)
	}
	rr := o.SLOReport().Route("/v1/jobs")
	if rr == nil || rr.Bad != 10 {
		t.Fatalf("shed load: bad=%v, want 10 (429 must spend error budget)", rr)
	}
	if rr.MaxBurn() == 0 {
		t.Fatal("shed load: burn rate zero, want > 0")
	}
}

func TestRequestLogCorrelationFields(t *testing.T) {
	var buf bytes.Buffer
	o := New(Config{IDSeed: 11, Logger: NewLogger(&buf, slog.LevelInfo)})
	_, rt := o.StartRequest(context.Background(), Request{
		Method: "POST", Route: "/v1/solve", Tenant: "acme", RequestID: "r-cafef00d",
	})
	o.EndRequest(rt, 200)

	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, line)
	}
	if rec["trace_id"] != rt.TraceID().String() {
		t.Errorf("trace_id %v, want %s", rec["trace_id"], rt.TraceID())
	}
	if rec["span_id"] != rt.Root().ID().String() {
		t.Errorf("span_id %v, want %s", rec["span_id"], rt.Root().ID())
	}
	if rec["request_id"] != "r-cafef00d" || rec["tenant"] != "acme" || rec["route"] != "/v1/solve" {
		t.Errorf("correlation fields wrong: %v", rec)
	}
	if rec["status"] != float64(200) {
		t.Errorf("status %v, want 200", rec["status"])
	}

	// Error statuses escalate the level.
	buf.Reset()
	_, rt = o.StartRequest(context.Background(), Request{Route: "/v1/solve"})
	o.EndRequest(rt, 500)
	if !strings.Contains(buf.String(), `"level":"ERROR"`) {
		t.Errorf("5xx log line not ERROR: %s", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    slog.Level
		enabled bool
	}{
		{"off", 0, false},
		{"", 0, false},
		{"debug", slog.LevelDebug, true},
		{"INFO", slog.LevelInfo, true},
		{"warn", slog.LevelWarn, true},
		{"error", slog.LevelError, true},
	} {
		lvl, ok, err := ParseLevel(tc.in)
		if err != nil || ok != tc.enabled || (ok && lvl != tc.want) {
			t.Errorf("ParseLevel(%q) = (%v,%v,%v), want (%v,%v,nil)", tc.in, lvl, ok, err, tc.want, tc.enabled)
		}
	}
	if _, _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud): want error")
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
