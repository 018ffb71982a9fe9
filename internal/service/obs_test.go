// Request-observability tests: the traced solve path end to end — W3C
// traceparent adoption, span trees over the real queue/cache/solve stages,
// X-Request-ID correlation, SLO burn accounting, exemplar export, the
// perfetto trace download — plus the byte-identity contract when tracing is
// off and the client's retry correlation.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"varpower/internal/obs"
	"varpower/internal/service"
	"varpower/internal/service/client"
	"varpower/internal/service/loadgen"
)

// fixedTraceparent is the W3C header the CI smoke test also pins: trace ID
// 0af7…319c, remote parent span b7ad…3331, sampled.
const (
	fixedTraceID     = "0af7651916cd43dd8448eb211c80319c"
	fixedParentSpan  = "b7ad6b7169203331"
	fixedTraceparent = "00-" + fixedTraceID + "-" + fixedParentSpan + "-01"
)

// tracedConfig is testConfig plus a per-test observer (its own ring and SLO
// state, so tests don't see each other's traffic).
func tracedConfig() (service.Config, *obs.Observer) {
	o := obs.New(obs.Config{RingSize: 128})
	cfg := testConfig()
	cfg.Obs = o
	return cfg, o
}

// postSolveTraced issues a POST /v1/solve with observability headers and
// returns body, status and selected response headers.
func postSolveTraced(t *testing.T, baseURL string, req service.SolveRequest, hdr map[string]string) ([]byte, int, http.Header) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/v1/solve", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode, resp.Header
}

// spanByName finds the first span with the given name, or nil.
func spanByName(v obs.TraceView, name string) *obs.SpanView {
	for i := range v.Spans {
		if v.Spans[i].Name == name {
			return &v.Spans[i]
		}
	}
	return nil
}

// attrVal returns the value of an attribute key, or "".
func attrVal(sp *obs.SpanView, key string) string {
	if sp == nil {
		return ""
	}
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// assertWellFormed checks one exported entry is a tree: exactly one root
// (parentless or parented outside the entry), every other span's parent
// resolving to a span in the same entry.
func assertWellFormed(t *testing.T, v obs.TraceView) {
	t.Helper()
	ids := make(map[string]bool, len(v.Spans))
	for _, sp := range v.Spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range v.Spans {
		if sp.ParentID == "" || !ids[sp.ParentID] {
			roots++
			continue
		}
	}
	if roots != 1 {
		t.Fatalf("trace %s (%s): %d root spans, want exactly 1: %+v", v.TraceID, v.Route, roots, v.Spans)
	}
}

// TestTracedSolveSpanTree drives a miss-then-hit solve pair under a fixed
// traceparent and asserts the full acceptance-criteria span tree: both
// requests join the caller's trace, the first entry shows
// queue.admit/cache(miss)/calibrate/measure/solve, the second a cache(hit)
// with no solve underneath, and the trace survives in /v1/traces/{id}.
func TestTracedSolveSpanTree(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, c := newTestServer(t, cfg)

	hdr := map[string]string{"traceparent": fixedTraceparent, "X-Request-ID": "req-outer-1"}
	b1, status, h1 := postSolveTraced(t, hs.URL, solveReq(), hdr)
	if status != http.StatusOK {
		t.Fatalf("first solve: status %d, body %s", status, b1)
	}
	hdr["X-Request-ID"] = "req-outer-2"
	b2, status, h2 := postSolveTraced(t, hs.URL, solveReq(), hdr)
	if status != http.StatusOK {
		t.Fatalf("second solve: status %d", status)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit body differs from miss body")
	}

	// Response headers: the caller's trace continues (same trace ID, fresh
	// span ID) and the request IDs echo back.
	for i, h := range []http.Header{h1, h2} {
		tp := h.Get("traceparent")
		if !strings.HasPrefix(tp, "00-"+fixedTraceID+"-") || !strings.HasSuffix(tp, "-01") {
			t.Fatalf("response %d traceparent = %q, want trace %s continued", i+1, tp, fixedTraceID)
		}
		if strings.Contains(tp, fixedParentSpan) {
			t.Fatalf("response %d traceparent %q reuses the caller's span ID instead of minting a root", i+1, tp)
		}
	}
	if got := h1.Get("X-Request-ID"); got != "req-outer-1" {
		t.Fatalf("X-Request-ID echo = %q, want req-outer-1", got)
	}
	if got := h2.Get("X-Request-ID"); got != "req-outer-2" {
		t.Fatalf("X-Request-ID echo = %q, want req-outer-2", got)
	}

	entries, err := c.Trace(context.Background(), fixedTraceID)
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("retained entries = %d, want 2 (miss + hit)", len(entries))
	}
	miss, hit := entries[0], entries[1]
	if miss.RequestID != "req-outer-1" || hit.RequestID != "req-outer-2" {
		t.Fatalf("entry request IDs = %q, %q; want req-outer-1, req-outer-2", miss.RequestID, hit.RequestID)
	}
	for _, v := range entries {
		assertWellFormed(t, v)
		root := spanByName(v, "/v1/solve")
		if root == nil {
			t.Fatalf("entry has no /v1/solve root span: %+v", v.Spans)
		}
		if root.ParentID != fixedParentSpan {
			t.Fatalf("root parent = %q, want the caller's span %s", root.ParentID, fixedParentSpan)
		}
		if spanByName(v, "queue.admit") == nil {
			t.Fatalf("entry missing queue.admit span: %+v", v.Spans)
		}
	}
	if got := attrVal(spanByName(miss, "cache"), "cache"); got != string(service.DispMiss) {
		t.Fatalf("first entry cache attr = %q, want %q", got, service.DispMiss)
	}
	if got := attrVal(spanByName(hit, "cache"), "cache"); got != string(service.DispHit) {
		t.Fatalf("second entry cache attr = %q, want %q", got, service.DispHit)
	}
	for _, name := range []string{"calibrate", "measure", "solve"} {
		if spanByName(miss, name) == nil {
			t.Fatalf("miss entry missing %q span: %+v", name, miss.Spans)
		}
		if spanByName(hit, name) != nil {
			t.Fatalf("hit entry has a %q span; a cache hit must not recompute", name)
		}
	}
}

// TestTracedConcurrentSolves fires 32 concurrent traced clients and asserts
// every retained entry is a well-formed tree (run with -race, this is also
// the data-race gate on the span plumbing under the real handler stack).
func TestTracedConcurrentSolves(t *testing.T) {
	cfg, o := tracedConfig()
	_, hs, _ := newTestServer(t, cfg)
	const clients = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := solveReq()
			req.Seed = uint64(9000 + i%4) // a few distinct keys: hits, misses and coalesced waits
			if _, status, _ := postSolveTraced(t, hs.URL, req, nil); status != http.StatusOK {
				t.Errorf("client %d: status %d", i, status)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	entries := o.Traces()
	if len(entries) != clients {
		t.Fatalf("retained entries = %d, want %d", len(entries), clients)
	}
	for _, rt := range entries {
		assertWellFormed(t, rt.View())
	}
}

// TestUntracedByteIdentityAnd404s is the -trace=off contract: solve bodies
// byte-identical to a traced instance's, no traceparent header minted, and
// the observability endpoints answer structured 404s.
func TestUntracedByteIdentityAnd404s(t *testing.T) {
	tracedCfg, _ := tracedConfig()
	_, tracedHS, _ := newTestServer(t, tracedCfg)
	_, plainHS, c := newTestServer(t, testConfig()) // no Obs: tracing off

	wantBody, status, _ := postSolveTraced(t, tracedHS.URL, solveReq(), map[string]string{"traceparent": fixedTraceparent})
	if status != http.StatusOK {
		t.Fatalf("traced solve: status %d", status)
	}
	gotBody, status, h := postSolveTraced(t, plainHS.URL, solveReq(), map[string]string{"traceparent": fixedTraceparent})
	if status != http.StatusOK {
		t.Fatalf("untraced solve: status %d", status)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("untraced solve body differs from traced body:\n%s\nvs\n%s", gotBody, wantBody)
	}
	if tp := h.Get("traceparent"); tp != "" {
		t.Fatalf("untraced response carries traceparent %q, want none", tp)
	}
	// An incoming X-Request-ID still echoes (correlation costs nothing), but
	// none is minted.
	_, _, h = postSolveTraced(t, plainHS.URL, solveReq(), map[string]string{"X-Request-ID": "still-echoed"})
	if got := h.Get("X-Request-ID"); got != "still-echoed" {
		t.Fatalf("untraced X-Request-ID echo = %q, want still-echoed", got)
	}
	_, _, h = postSolveTraced(t, plainHS.URL, solveReq(), nil)
	if got := h.Get("X-Request-ID"); got != "" {
		t.Fatalf("untraced response minted X-Request-ID %q, want none", got)
	}

	ctx := context.Background()
	for _, fetch := range []func() error{
		func() error { _, err := c.Traces(ctx); return err },
		func() error { _, err := c.Trace(ctx, fixedTraceID); return err },
		func() error { _, err := c.SLO(ctx); return err },
	} {
		err := fetch()
		apiErr, ok := err.(*service.APIError)
		if !ok || apiErr.Err.Status != http.StatusNotFound {
			t.Fatalf("observability endpoint with tracing off = %v, want structured 404", err)
		}
	}
}

// TestSLOBurnAndShedLoad drives healthy solves (zero burn), then fills a
// capacity-1 queue until it sheds with 429 and asserts the burn-rate report
// spends availability budget and the rejected-wait histogram saw the sample
// — the fix that makes shed load visible to SLO burn.
func TestSLOBurnAndShedLoad(t *testing.T) {
	cfg, _ := tracedConfig()
	cfg.QueueSize = 1
	cfg.JobWorkers = 1
	s, hs, c := newTestServer(t, cfg)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, _, err := c.Solve(ctx, solveReq()); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	slo, err := c.SLO(ctx)
	if err != nil {
		t.Fatalf("slo: %v", err)
	}
	solve := slo.Route("/v1/solve")
	if solve == nil {
		t.Fatalf("SLO report missing /v1/solve: %+v", slo)
	}
	if solve.Total < 3 {
		t.Fatalf("/v1/solve SLO total = %d, want >= 3", solve.Total)
	}
	for _, w := range solve.Windows {
		if w.AvailabilityBurn != 0 {
			t.Fatalf("availability burn %.3f in %s after healthy solves, want 0", w.AvailabilityBurn, w.Window)
		}
	}

	// Hold the single executor, fill the one queue slot, then shed.
	gate := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	s.SetTestHookBeforeJob(func() {
		once.Do(func() { close(started) })
		<-gate
	})
	defer close(gate)
	if _, err := c.SubmitJob(ctx, solveReq()); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	<-started
	if _, err := c.SubmitJob(ctx, solveReq()); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	sheds := 0
	for i := 0; i < 3; i++ {
		buf, _ := json.Marshal(solveReq())
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatalf("no 429s from a full capacity-1 queue")
	}

	slo, err = c.SLO(ctx)
	if err != nil {
		t.Fatalf("slo after shed: %v", err)
	}
	jobs := slo.Route("/v1/jobs")
	if jobs == nil {
		t.Fatalf("SLO report missing /v1/jobs: %+v", slo)
	}
	if jobs.Bad < uint64(sheds) {
		t.Fatalf("/v1/jobs bad = %d after %d sheds, want >= %d", jobs.Bad, sheds, sheds)
	}
	if burn := jobs.MaxBurn(); burn <= 0 {
		t.Fatalf("/v1/jobs burn = %.3f after shed load, want > 0", burn)
	}

	// The shed path must leave a wait-histogram sample for dashboards too.
	prom, err := c.Metrics(ctx, "")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(prom, "varpower_queue_rejected_wait_seconds") {
		t.Fatalf("metrics missing varpower_queue_rejected_wait_seconds after 429s")
	}
}

// TestOpenMetricsExemplars asserts a traced solve pins its trace ID into the
// request-latency histogram and the OpenMetrics rendering carries it with
// the mandatory EOF terminator.
func TestOpenMetricsExemplars(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, c := newTestServer(t, cfg)
	if _, status, _ := postSolveTraced(t, hs.URL, solveReq(), map[string]string{"traceparent": fixedTraceparent}); status != http.StatusOK {
		t.Fatalf("solve: status %d", status)
	}
	om, err := c.Metrics(context.Background(), "openmetrics")
	if err != nil {
		t.Fatalf("metrics openmetrics: %v", err)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics output does not end with # EOF")
	}
	if !strings.Contains(om, `# {trace_id="`+fixedTraceID+`"}`) {
		t.Fatalf("OpenMetrics output has no exemplar for trace %s", fixedTraceID)
	}
	_, err = c.Metrics(context.Background(), "om")
	if err != nil {
		t.Fatalf("metrics om alias: %v", err)
	}
	mURL := hs.URL + "/v1/metrics?format=openmetrics"
	resp, err := http.Get(mURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("Content-Type = %q, want application/openmetrics-text", ct)
	}
}

// TestPerfettoExport downloads a trace in Chrome trace-event form and checks
// it is loadable: a traceEvents array holding the solve spans plus process
// and thread metadata.
func TestPerfettoExport(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, _ := newTestServer(t, cfg)
	if _, status, _ := postSolveTraced(t, hs.URL, solveReq(), map[string]string{"traceparent": fixedTraceparent}); status != http.StatusOK {
		t.Fatalf("solve: status %d", status)
	}
	resp, err := http.Get(hs.URL + "/v1/traces/" + fixedTraceID + "?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perfetto export: status %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, fixedTraceID) {
		t.Fatalf("Content-Disposition = %q, want attachment named after the trace", cd)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"process_name", "/v1/solve", "queue.admit", "cache", "solve"} {
		if !names[want] {
			t.Fatalf("perfetto export missing %q event (have %v)", want, names)
		}
	}

	// Unknown formats and unknown IDs answer structured errors.
	resp, err = http.Get(hs.URL + "/v1/traces/" + fixedTraceID + "?format=zipkin")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=zipkin: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/v1/traces/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", resp.StatusCode)
	}
}

// TestJobTraceContinuation submits a job under a fixed traceparent and
// asserts the executed run continues the same trace: the merged trace holds
// the admission entry plus a job.run continuation parented under the
// admission root, with the final-run measure span inside.
func TestJobTraceContinuation(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, c := newTestServer(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	buf, _ := json.Marshal(solveReq())
	hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", fixedTraceparent)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := c.WaitJob(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}

	entries, err := c.Trace(ctx, fixedTraceID)
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("merged entries = %d, want 2 (admission + continuation)", len(entries))
	}
	admission, run := entries[0], entries[1]
	admitRoot := spanByName(admission, "/v1/jobs")
	if admitRoot == nil {
		t.Fatalf("admission entry has no /v1/jobs root: %+v", admission.Spans)
	}
	runRoot := spanByName(run, "job.run")
	if runRoot == nil {
		t.Fatalf("continuation entry has no job.run root: %+v", run.Spans)
	}
	if runRoot.ParentID != admitRoot.SpanID {
		t.Fatalf("continuation parent = %q, want admission root %q", runRoot.ParentID, admitRoot.SpanID)
	}
	if sp := spanByName(run, "measure"); sp == nil || attrVal(sp, "kind") != "final_run" {
		t.Fatalf("continuation missing final_run measure span: %+v", run.Spans)
	}
}

// postTraced issues a POST under the given trace ID and decodes the JSON
// answer into out.
func postTraced(t *testing.T, url, traceID string, req service.SolveRequest, out any) {
	t.Helper()
	buf, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", "00-"+traceID+"-"+fixedParentSpan+"-01")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// tracedJobRun runs one job under traceID and returns its job.run entry.
func tracedJobRun(t *testing.T, baseURL string, c *client.Client, traceID string, req service.SolveRequest) obs.TraceView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var st service.JobStatus
	postTraced(t, baseURL+"/v1/jobs", traceID, req, &st)
	if done, err := c.WaitJob(ctx, st.ID, 20*time.Millisecond); err != nil || done.State != service.JobDone {
		t.Fatalf("job %s: %+v, %v", st.ID, done, err)
	}
	entries, err := c.Trace(ctx, traceID)
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	for _, v := range entries {
		if v.Route == "job.run" {
			assertWellFormed(t, v)
			return v
		}
	}
	t.Fatalf("trace %s has no job.run entry: %+v", traceID, entries)
	return obs.TraceView{}
}

// assertChild fails unless the entry's first span named child has the
// first span named parent as its parent, and returns the child.
func assertChild(t *testing.T, v obs.TraceView, parent, child string) *obs.SpanView {
	t.Helper()
	p, c := spanByName(v, parent), spanByName(v, child)
	if p == nil || c == nil || c.ParentID != p.SpanID {
		t.Fatalf("%s is not a child of %s in %s: %+v", child, parent, v.Route, v.Spans)
	}
	return c
}

// TestJobTraceHoldsFrameworkRun pins a job as one tree: the executor's
// measure span holds core's framework.run, whose phases hold the measured
// run.
func TestJobTraceHoldsFrameworkRun(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, c := newTestServer(t, cfg)
	run := tracedJobRun(t, hs.URL, c, fixedTraceID, solveReq())
	assertChild(t, run, "job.run", "measure")
	assertChild(t, run, "measure", "framework.run")
	for _, phase := range []string{"pmt.build", "budget.solve", "framework.execute"} {
		assertChild(t, run, "framework.run", phase)
	}
	assertChild(t, run, "framework.execute", "measure.run")
	assertChild(t, run, "measure.run", "measure.simulate")
}

// TestJobSpanCountIndependentOfModules: calibration test runs stay out of
// a trace, so a job's tree has the same shape at 32 and at 256 modules.
func TestJobSpanCountIndependentOfModules(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, c := newTestServer(t, cfg)
	counts := map[int]int{}
	for i, n := range []int{32, 256} {
		req := solveReq()
		req.Modules = n
		req.BudgetWatts = 75 * float64(n)
		traceID := fmt.Sprintf("%031x%d", 0xabc, i+1)
		run := tracedJobRun(t, hs.URL, c, traceID, req)
		assertChild(t, run, "framework.execute", "measure.run")
		counts[n] = len(run.Spans)
	}
	if counts[32] != counts[256] {
		t.Fatalf("job span counts differ with module count: %v", counts)
	}
}

// TestJobTraceCommittedBeforeDone: a job's job.run trace is committed
// before the job turns done, so a client that has seen the job done finds
// the entry. Each job's state is polled without pause (directly: polls over
// HTTP would each add a trace entry and could evict the one under test),
// and the trace is looked up the moment it reads done. Two goroutines keep
// snapshotting the trace ring meanwhile: a commit that waits for the ring's
// lock after the job turned done is then caught within a few hundred jobs.
func TestJobTraceCommittedBeforeDone(t *testing.T) {
	cfg, o := tracedConfig()
	s, hs, _ := newTestServer(t, cfg)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = o.Traces()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		traceID := fmt.Sprintf("%032x", 0xd0e0+i)
		var st service.JobStatus
		postTraced(t, hs.URL+"/v1/jobs", traceID, solveReq(), &st)
		for state := st.State; state != service.JobDone; state = s.JobState(st.ID) {
			if state == service.JobFailed || state == "" {
				t.Fatalf("job %d (%s) is %q", i, st.ID, state)
			}
		}
		id, err := obs.ParseTraceID(traceID)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(o.Lookup(id), func(rt *obs.RequestTrace) bool { return rt.View().Route == "job.run" }) {
			t.Fatalf("job %d is done but trace %s has no job.run entry", i, traceID)
		}
	}
}

// TestOracleColdSolveHoldsPMTOracle: a VaPcOr cold solve's oracle
// measurement lands under the request's calibrate/measure spans.
func TestOracleColdSolveHoldsPMTOracle(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, c := newTestServer(t, cfg)
	req := solveReq()
	req.Scheme = "vapcor"
	var resp service.SolveResponse
	postTraced(t, hs.URL+"/v1/solve", fixedTraceID, req, &resp)
	entries, err := c.Trace(context.Background(), fixedTraceID)
	if err != nil || len(entries) != 1 {
		t.Fatalf("fetch trace: %d entries, %v", len(entries), err)
	}
	v := entries[0]
	assertWellFormed(t, v)
	assertChild(t, v, "calibrate", "measure")
	if sp := assertChild(t, v, "measure", "pmt.oracle"); attrVal(sp, "modules") != "32" {
		t.Fatalf("pmt.oracle attrs %+v, want modules=32", sp.Attrs)
	}
}

// TestClientRetrySameRequestID pins the retry correlation contract: every
// attempt of one logical request carries the same X-Request-ID, and a 503
// is retried to success.
func TestClientRetrySameRequestID(t *testing.T) {
	var mu sync.Mutex
	var ids []string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get("X-Request-ID"))
		n := len(ids)
		mu.Unlock()
		if n == 1 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer hs.Close()

	c := client.New(hs.URL)
	c.Retries = 2
	c.RetryBackoff = time.Millisecond
	out, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz with one 503: %v", err)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz = %v, want ok after retry", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 2 {
		t.Fatalf("attempts = %d, want 2", len(ids))
	}
	if ids[0] == "" || ids[0] != ids[1] {
		t.Fatalf("X-Request-ID across attempts = %q, %q; want identical non-empty", ids[0], ids[1])
	}
}

// TestLoadgenVerifyObs runs the miniature load test against a traced server
// and asserts the selftest's observability gate passes: SLO fetched, zero
// availability burn, and a retained hot cache-hit trace.
func TestLoadgenVerifyObs(t *testing.T) {
	cfg, _ := tracedConfig()
	_, hs, _ := newTestServer(t, cfg)
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:      hs.URL,
		Concurrency:  4,
		ColdRequests: 2,
		HotRequests:  40,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if err := rep.VerifyObs(); err != nil {
		t.Fatalf("VerifyObs on a healthy traced run: %v", err)
	}
}
