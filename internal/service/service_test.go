// Tests live in package service_test so they can exercise the daemon the
// way real callers do — through internal/service/client over httptest —
// which an in-package test could not (client imports service).
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"varpower/internal/service"
	"varpower/internal/service/client"
	"varpower/internal/service/loadgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testConfig is the shared small-but-meaningful server shape: one preset,
// 32 modules, a fixed seed — solves complete in milliseconds and the golden
// body stays reviewable.
func testConfig() service.Config {
	return service.Config{
		Systems: []string{"HA8K"},
		Modules: 32,
		Seed:    0x5c15,
	}
}

// newTestServer builds a service.Server plus an httptest front end.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, hs, client.New(hs.URL)
}

// solveReq is the canonical test solve: every test that needs "some valid
// request" uses this one, so cache keys line up across subtests.
func solveReq() service.SolveRequest {
	return service.SolveRequest{
		System:      "HA8K",
		Workload:    "dgemm",
		Scheme:      "vapc",
		BudgetWatts: 2400,
	}
}

func TestHealthzAndSystems(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	ctx := context.Background()
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz status = %v, want ok", h["status"])
	}
	sys, err := c.Systems(ctx)
	if err != nil {
		t.Fatalf("systems: %v", err)
	}
	if len(sys) != 1 || sys[0]["name"] != "HA8K" {
		t.Fatalf("systems = %v, want one HA8K entry", sys)
	}
	if got := sys[0]["modules_loaded"]; got != float64(32) {
		t.Fatalf("modules_loaded = %v, want 32", got)
	}
}

func TestPVTEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	raw, err := c.PVT(context.Background(), "ha8k")
	if err != nil {
		t.Fatalf("pvt: %v", err)
	}
	var pvt struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(raw, &pvt); err != nil {
		t.Fatalf("decode pvt: %v", err)
	}
	if len(pvt.Entries) != 32 {
		t.Fatalf("pvt entries = %d, want 32", len(pvt.Entries))
	}
	if _, err := c.PVT(context.Background(), "nosuch"); err == nil {
		t.Fatalf("pvt for unknown system succeeded, want 404")
	} else if apiErr, ok := err.(*service.APIError); !ok || apiErr.Err.Status != http.StatusNotFound {
		t.Fatalf("pvt error = %v, want structured 404", err)
	}
}

// TestSolveGolden pins the full rendered /v1/solve body for a fixed seed —
// the serving layer's contract that identical requests yield byte-identical
// JSON, in reviewable form. testdata/solve-hybrid.golden holds the hybrid
// bodies, one a line: Naive, VaPc and VaFs under the uniform and greedy
// splitters, then VaFs at fault level medium.
func TestSolveGolden(t *testing.T) {
	_, hs, _ := newTestServer(t, testConfig())
	body, status, _ := postSolve(t, hs.URL, solveReq())
	if status != http.StatusOK {
		t.Fatalf("solve status = %d, body %s", status, body)
	}
	checkGolden(t, filepath.Join("testdata", "solve.golden"), body)

	_, hs, _ = newTestServer(t, hybridConfig())
	var hybrid []byte
	var reqs []service.SolveRequest
	for _, scheme := range []string{"naive", "vapc", "vafs"} {
		for _, splitter := range []string{"uniform", "greedy"} {
			req := hybridReq()
			req.Scheme, req.Splitter = scheme, splitter
			reqs = append(reqs, req)
		}
	}
	faulty := hybridReq()
	faulty.Scheme, faulty.Faults = "vafs", "medium"
	for _, req := range append(reqs, faulty) {
		body, status, _ := postSolve(t, hs.URL, req)
		if status != http.StatusOK {
			t.Fatalf("hybrid solve %+v: status = %d, body %s", req, status, body)
		}
		hybrid = append(hybrid, body...)
	}
	checkGolden(t, filepath.Join("testdata", "solve-hybrid.golden"), hybrid)
}

// checkGolden compares got with the golden file at path, rewriting the file
// first under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("solve body diverges from %s\n got: %s\nwant: %s", path, got, want)
	}
}

// postSolve issues a raw POST /v1/solve, returning body, status and the
// cache disposition header.
func postSolve(t *testing.T, baseURL string, req service.SolveRequest) ([]byte, int, string) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), resp.StatusCode, resp.Header.Get("X-Varpower-Cache")
}

// TestSolveCoalescing fires 32 concurrent clients at the same cold solve key
// and asserts exactly one underlying solve ran: one miss, everything else a
// coalesced wait or a post-completion hit, all byte-identical.
func TestSolveCoalescing(t *testing.T) {
	s, hs, _ := newTestServer(t, testConfig())
	const clients = 32
	req := solveReq()
	req.Seed = 7777 // not the serving seed: a genuinely expensive cold solve

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		disps  []string
	)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			body, status, disp := postSolve(t, hs.URL, req)
			if status != http.StatusOK {
				t.Errorf("status = %d, body %s", status, body)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			disps = append(disps, disp)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(bodies) != clients {
		t.Fatalf("got %d successful responses, want %d", len(bodies), clients)
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i+1, b, bodies[0])
		}
	}
	stats := s.SolveCacheStats()
	if stats.Misses != 1 {
		t.Fatalf("solve cache misses = %d, want exactly 1 (dispositions: %v)", stats.Misses, disps)
	}
	if got := stats.Hits + stats.Coalesced; got != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d", got, clients-1)
	}
	if pmt := s.PMTCacheStats(); pmt.Misses != 1 {
		t.Fatalf("pmt cache misses = %d, want exactly 1", pmt.Misses)
	}
}

// TestSolveDeterminismAcrossWorkers runs the same requests against servers
// built at different calibration fan-out widths and requires byte-identical
// bodies — the determinism contract holds through the serving layer. Seed 0
// exercises the base-clone path, seed 12345 the cold-replica path.
func TestSolveDeterminismAcrossWorkers(t *testing.T) {
	seeds := []uint64{0, 12345}
	ref := make(map[uint64][]byte)
	for _, workers := range []int{1, 2, 0} {
		cfg := testConfig()
		cfg.Workers = workers
		_, hs, _ := newTestServer(t, cfg)
		for _, seed := range seeds {
			req := solveReq()
			req.Seed = seed
			body, status, _ := postSolve(t, hs.URL, req)
			if status != http.StatusOK {
				t.Fatalf("workers=%d seed=%d: status %d, body %s", workers, seed, status, body)
			}
			if workers == 1 {
				ref[seed] = body
				continue
			}
			if !bytes.Equal(body, ref[seed]) {
				t.Fatalf("workers=%d seed=%d: solve body differs from workers=1", workers, seed)
			}
		}
	}
}

// TestSolveCacheDispositions checks the X-Varpower-Cache header sequence on
// a quiet server: first request misses, second hits, and both bodies match.
func TestSolveCacheDispositions(t *testing.T) {
	_, hs, _ := newTestServer(t, testConfig())
	b1, _, d1 := postSolve(t, hs.URL, solveReq())
	b2, _, d2 := postSolve(t, hs.URL, solveReq())
	if d1 != string(service.DispMiss) || d2 != string(service.DispHit) {
		t.Fatalf("dispositions = %q, %q; want miss, hit", d1, d2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit body differs from miss body")
	}
}

// TestSolveBudgetSweepReusesCalibration asserts the two-level cache split:
// three budgets over one workload calibrate once.
func TestSolveBudgetSweepReusesCalibration(t *testing.T) {
	s, hs, _ := newTestServer(t, testConfig())
	for _, w := range []float64{1500, 2000, 2500} {
		req := solveReq()
		req.BudgetWatts = w
		if body, status, _ := postSolve(t, hs.URL, req); status != http.StatusOK {
			t.Fatalf("budget %v: status %d, body %s", w, status, body)
		}
	}
	if pmt := s.PMTCacheStats(); pmt.Misses != 1 {
		t.Fatalf("pmt cache misses = %d across a budget sweep, want 1", pmt.Misses)
	}
	if sol := s.SolveCacheStats(); sol.Misses != 3 {
		t.Fatalf("solve cache misses = %d, want 3 (distinct budgets)", sol.Misses)
	}
}

// TestSolveBadRequests exercises the structured error body on every
// validation failure class.
func TestSolveBadRequests(t *testing.T) {
	_, hs, _ := newTestServer(t, testConfig())
	cases := []struct {
		name   string
		mutate func(*service.SolveRequest)
	}{
		{"unknown system", func(r *service.SolveRequest) { r.System = "cray" }},
		{"unknown workload", func(r *service.SolveRequest) { r.Workload = "linpack" }},
		{"unknown scheme", func(r *service.SolveRequest) { r.Scheme = "magic" }},
		{"unknown faults", func(r *service.SolveRequest) { r.Faults = "catastrophic" }},
		{"missing budget", func(r *service.SolveRequest) { r.BudgetWatts = 0 }},
		{"both budgets", func(r *service.SolveRequest) { r.Budget = "2kW" }},
		{"modules out of range", func(r *service.SolveRequest) { r.Modules = 99999 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := solveReq()
			tc.mutate(&req)
			body, status, _ := postSolve(t, hs.URL, req)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", status, body)
			}
			var apiErr service.APIError
			if err := json.Unmarshal(body, &apiErr); err != nil {
				t.Fatalf("error body is not structured JSON: %v (%s)", err, body)
			}
			if apiErr.Err.Code != service.CodeBadRequest || apiErr.Err.Status != 400 || apiErr.Err.Message == "" {
				t.Fatalf("error body = %+v, want code %q with a message", apiErr.Err, service.CodeBadRequest)
			}
		})
	}

	// Unknown fields are 400s too (strict decoding).
	resp, err := http.Post(hs.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"system":"HA8K","workloud":"dgemm"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status = %d, want 400", resp.StatusCode)
	}
}

// TestNonPositiveBudgetRejectedBeforeWork: a zero or negative budget, in
// either field, is a 400 naming the value on the solve and job routes, and
// no calibration runs for it.
func TestNonPositiveBudgetRejectedBeforeWork(t *testing.T) {
	s, hs, _ := newTestServer(t, testConfig())
	const prefix = `{"system":"HA8K","workload":"dgemm","scheme":"vapc",`
	cases := []struct{ body, value string }{
		{prefix + `"budget":"-5kW"}`, "-5 kW"},
		{prefix + `"budget":"0W"}`, "0 W"},
		{prefix + `"budget_watts":-5000}`, "-5 kW"},
	}
	for _, route := range []string{"/v1/solve", "/v1/jobs"} {
		for _, tc := range cases {
			resp, err := http.Post(hs.URL+route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var apiErr service.APIError
			err = json.NewDecoder(resp.Body).Decode(&apiErr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Err.Message, tc.value) {
				t.Errorf("%s %s: status %d, error %+v (%v); want 400 naming %q",
					route, tc.body, resp.StatusCode, apiErr.Err, err, tc.value)
			}
		}
	}
	if m := s.PMTCacheStats().Misses; m != 0 {
		t.Fatalf("rejected budgets cost %d PMT calibrations, want 0", m)
	}
}

// TestSolveWithFaults solves against a named fault rung and requires the
// response to differ from the healthy solve (the plan actually installed).
func TestSolveWithFaults(t *testing.T) {
	_, hs, _ := newTestServer(t, testConfig())
	healthy, status, _ := postSolve(t, hs.URL, solveReq())
	if status != http.StatusOK {
		t.Fatalf("healthy solve: status %d", status)
	}
	req := solveReq()
	req.Faults = "high"
	faulty, status, _ := postSolve(t, hs.URL, req)
	if status != http.StatusOK {
		t.Fatalf("faulty solve: status %d, body %s", status, faulty)
	}
	if bytes.Equal(healthy, faulty) {
		t.Fatalf("solve with faults=high is byte-identical to healthy solve; injection did not fire")
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(faulty, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Faults != "high" {
		t.Fatalf("response faults = %q, want high", resp.Faults)
	}

	// faults=none canonicalises to the healthy key: byte-identical, cached.
	req.Faults = "none"
	none, status, disp := postSolve(t, hs.URL, req)
	if status != http.StatusOK {
		t.Fatalf("faults=none solve: status %d", status)
	}
	if !bytes.Equal(none, healthy) {
		t.Fatalf("faults=none body differs from healthy body")
	}
	if disp != string(service.DispHit) {
		t.Fatalf("faults=none disposition = %q, want hit (same cache key)", disp)
	}
}

// TestJobLifecycle submits a full simulated run and polls it to completion.
func TestJobLifecycle(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.SubmitJob(ctx, solveReq())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" {
		t.Fatalf("submit returned empty id")
	}
	final, err := c.WaitJob(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != service.JobDone {
		t.Fatalf("job state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.ElapsedS <= 0 || final.Result.AvgPowerW <= 0 {
		t.Fatalf("job result = %+v, want positive elapsed and power", final.Result)
	}
	if _, err := c.Job(ctx, "j-404"); err == nil {
		t.Fatalf("lookup of unknown job succeeded, want 404")
	}
}

// TestQueueFullBackpressure fills a capacity-1 queue while the single
// executor is held, then asserts the next submission is shed with 429 and a
// Retry-After hint.
func TestQueueFullBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 1
	cfg.JobWorkers = 1
	s, hs, c := newTestServer(t, cfg)

	gate := make(chan struct{})
	var hookOnce sync.Once
	started := make(chan struct{})
	s.SetTestHookBeforeJob(func() {
		hookOnce.Do(func() { close(started) })
		<-gate
	})
	defer close(gate) // release the executor so Cleanup's Drain finishes

	ctx := context.Background()
	// First job occupies the executor...
	if _, err := c.SubmitJob(ctx, solveReq()); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	<-started
	// ...second fills the queue slot...
	if _, err := c.SubmitJob(ctx, solveReq()); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// ...third must be rejected with backpressure headers.
	buf, _ := json.Marshal(solveReq())
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	var apiErr service.APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("429 body is not structured JSON: %v", err)
	}
	if apiErr.Err.Code != service.CodeQueueFull {
		t.Fatalf("429 code = %q, want %q", apiErr.Err.Code, service.CodeQueueFull)
	}
}

// TestDrainRejectsNewJobs verifies the graceful-shutdown contract: a
// draining server answers 503 to new jobs but still serves solves.
func TestDrainRejectsNewJobs(t *testing.T) {
	s, hs, c := newTestServer(t, testConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err := c.SubmitJob(ctx, solveReq())
	apiErr, ok := err.(*service.APIError)
	if !ok || apiErr.Err.Status != http.StatusServiceUnavailable || apiErr.Err.Code != service.CodeDraining {
		t.Fatalf("submit while draining = %v, want structured 503 %s", err, service.CodeDraining)
	}
	if _, status, _ := postSolve(t, hs.URL, solveReq()); status != http.StatusOK {
		t.Fatalf("solve while draining: status %d, want 200", status)
	}
}

// TestMetricsEndpoint asserts the varpower_http_* family is exposed after
// traffic, in all three formats.
func TestMetricsEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	ctx := context.Background()
	if _, _, err := c.Solve(ctx, solveReq()); err != nil {
		t.Fatalf("solve: %v", err)
	}
	prom, err := c.Metrics(ctx, "")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, family := range []string{
		"varpower_http_requests_total",
		"varpower_http_request_seconds",
		"varpower_solve_cache_hits_total",
		"varpower_queue_depth",
	} {
		if !strings.Contains(prom, family) {
			t.Fatalf("prometheus metrics missing %s", family)
		}
	}
	js, err := c.Metrics(ctx, "json")
	if err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if !json.Valid([]byte(js)) {
		t.Fatalf("json metrics are not valid JSON")
	}
	if _, err := c.Metrics(ctx, "yaml"); err == nil {
		t.Fatalf("metrics format=yaml succeeded, want 400")
	}
}

// TestNotFoundRoute pins the structured 404 on unknown paths.
func TestNotFoundRoute(t *testing.T) {
	_, hs, _ := newTestServer(t, testConfig())
	resp, err := http.Get(hs.URL + "/v2/frobnicate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var apiErr service.APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("404 body is not structured JSON: %v", err)
	}
	if apiErr.Err.Code != service.CodeNotFound {
		t.Fatalf("404 code = %q, want %q", apiErr.Err.Code, service.CodeNotFound)
	}
}

// TestLoadgenSmoke runs a miniature load test end to end through the public
// client, asserting the phases complete error-free and the hot phase is
// served from cache. (The full ≥5× gate runs in varpowerd -selftest; here
// the point is that the loadgen harness itself works.)
func TestLoadgenSmoke(t *testing.T) {
	_, hs, _ := newTestServer(t, testConfig())
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:      hs.URL,
		Concurrency:  4,
		ColdRequests: 2,
		HotRequests:  40,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.Cold.Errors != 0 || rep.Hot.Errors != 0 {
		t.Fatalf("loadgen saw errors: %+v", rep)
	}
	if rep.Hot.Misses != 1 {
		t.Fatalf("hot phase misses = %d, want 1", rep.Hot.Misses)
	}
	if rate := rep.Hot.HitRate(); rate < 0.9 {
		t.Fatalf("hot phase hit rate = %.2f, want >= 0.9", rate)
	}
}
