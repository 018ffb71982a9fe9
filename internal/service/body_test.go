package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/core"
)

// encodeJSON is the oracle renderSolve is held to: what
// json.NewEncoder(w).Encode(v) writes, and its error.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkRender requires renderSolve(r) to produce encoding/json's bytes, or
// its error string and no bytes.
func checkRender(t *testing.T, r *SolveResponse) {
	t.Helper()
	want, wantErr := encodeJSON(r)
	got, err := renderSolve(r)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || got != nil {
			t.Errorf("renderSolve(%+v) = %q, %v; want error %q", r, got, err, wantErr)
		}
	case err != nil:
		t.Errorf("renderSolve(%+v): %v; want %s", r, err, want)
	case !bytes.Equal(got, want):
		t.Errorf("renderSolve(%+v)\n got: %s\nwant: %s", r, got, want)
	}
}

// fullResponse sets every field, omitempty ones included.
func fullResponse() SolveResponse {
	return SolveResponse{
		System: "HA8K-hybrid", Workload: "mhd", Scheme: "VaFs", BudgetWatts: 9000,
		Modules: 16, Seed: 0x5c15, Faults: "medium",
		Alpha: 0.4375, FreqHz: 2.1e9, Feasible: true, Clamped: true, Constrained: true,
		PredictedPowerW: 8999.999999999998, PredictedTimeS: 12.3,
		Quarantined: []int{3, 11},
		Allocations: []ModuleAllocation{
			{Module: 0, PModule: 101.25, PCPU: 70.1, PDram: 31.15},
			{Module: 1, PModule: 99.00000000000001, PCPU: 68, PDram: 31.000000000000004},
		},
		Splitter: "greedy", CPUBudgetW: 3000.5, GPUBudgetW: 5999.5, GPUAlpha: 0.9,
		GPUClockHz: 1.41e9, GPUQuarantined: []int{7},
		GPUAllocations: []GPUAllocation{{Device: 0, PowerW: 187.5}, {Device: 1, PowerW: 250}},
	}
}

// TestRenderSolveEdgeCases holds renderSolve to encoding/json where the two
// could part: signed zero, the %e range and its ends, NaN and ±Inf, strings
// that need escaping, nil against empty slices, and each omitempty field
// set alone.
func TestRenderSolveEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string]func(r *SolveResponse){
		"every field set": func(*SolveResponse) {},
		"no omitempty field set": func(r *SolveResponse) {
			*r = SolveResponse{System: "HA8K", Allocations: []ModuleAllocation{}}
		},
		"nil allocations": func(r *SolveResponse) { r.Allocations = nil },
		"empty slices": func(r *SolveResponse) {
			r.Quarantined, r.GPUQuarantined, r.GPUAllocations = []int{}, []int{}, []GPUAllocation{}
		},
		"nil slices": func(r *SolveResponse) { r.Quarantined, r.GPUQuarantined, r.GPUAllocations = nil, nil, nil },
		"negative zero": func(r *SolveResponse) {
			r.Alpha, r.BudgetWatts, r.Allocations[0].PDram = negZero, negZero, negZero
			r.CPUBudgetW, r.GPUAlpha = negZero, negZero // omitted: -0 is empty
		},
		"e form below 1e-6": func(r *SolveResponse) {
			r.Alpha, r.FreqHz, r.Allocations[0].PCPU = 5e-7, -1e-7, 1.5e-10
			r.GPUAlpha, r.Allocations[1].PDram = 5e-324, math.SmallestNonzeroFloat64*3
		},
		"e form from 1e21": func(r *SolveResponse) {
			r.FreqHz, r.PredictedTimeS, r.GPUClockHz = 1e21, -1e21, math.MaxFloat64
			r.Allocations[1].PModule = 1.2345678901234567e300
		},
		"ends of the f range": func(r *SolveResponse) {
			r.Alpha, r.FreqHz = 1e-6, math.Nextafter(1e21, 0)
			r.PredictedTimeS, r.GPUAlpha = math.Nextafter(1e-6, 0), -1e-6
			r.Allocations[0].PModule = 1 << 53
			r.Allocations[1].PModule = 1<<53 + 2
		},
		"NaN":                   func(r *SolveResponse) { r.BudgetWatts = math.NaN() },
		"+Inf in an allocation": func(r *SolveResponse) { r.Allocations[1].PDram = math.Inf(1) },
		"-Inf in omitempty":     func(r *SolveResponse) { r.GPUClockHz = math.Inf(-1) },
		"first error wins": func(r *SolveResponse) {
			r.Alpha, r.FreqHz, r.GPUAllocations[0].PowerW = math.Inf(-1), math.NaN(), math.Inf(1)
		},
		"HTML and quote bytes": func(r *SolveResponse) {
			// One byte that needs escaping per string, so each is tested alone.
			r.System, r.Workload, r.Scheme, r.Faults, r.Splitter = "a<b", "a&b", `a"b`, "a>b", `a\b`
		},
		"control bytes":     func(r *SolveResponse) { r.Workload, r.Splitter = "tab\there\x01\x1f", "nl\n" },
		"invalid UTF-8":     func(r *SolveResponse) { r.Scheme = "bad\xff\xfeutf8\xc3" },
		"line separators":   func(r *SolveResponse) { r.System, r.Faults = "a\u2028b", "c\u2029d" },
		"DEL and non-ASCII": func(r *SolveResponse) { r.Workload, r.Scheme = "del\x7f", "é日本" },
		"extreme integers": func(r *SolveResponse) {
			r.Modules, r.Seed = math.MinInt64, math.MaxUint64
			r.Allocations[0].Module, r.GPUAllocations[1].Device = math.MaxInt64, -1
			r.Quarantined = []int{0, -5, math.MaxInt64}
		},
	}
	set := map[string]func(r *SolveResponse){
		"faults":          func(r *SolveResponse) { r.Faults = "low" },
		"quarantined":     func(r *SolveResponse) { r.Quarantined = []int{2} },
		"splitter":        func(r *SolveResponse) { r.Splitter = "uniform" },
		"cpu_budget_w":    func(r *SolveResponse) { r.CPUBudgetW = 1 },
		"gpu_budget_w":    func(r *SolveResponse) { r.GPUBudgetW = 2 },
		"gpu_alpha":       func(r *SolveResponse) { r.GPUAlpha = 0.5 },
		"gpu_clock_hz":    func(r *SolveResponse) { r.GPUClockHz = 1e9 },
		"gpu_quarantined": func(r *SolveResponse) { r.GPUQuarantined = []int{0, 1} },
		"gpu_allocations": func(r *SolveResponse) { r.GPUAllocations = []GPUAllocation{{Device: 3, PowerW: 1.5}} },
	}
	for field, setOnly := range set {
		cases["only "+field+" set"] = func(r *SolveResponse) {
			*r = SolveResponse{System: "HA8K", Allocations: []ModuleAllocation{{Module: 1}}}
			setOnly(r)
		}
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			r := fullResponse()
			mutate(&r)
			checkRender(t, &r)
		})
	}

	// The encoder's own error for the same value, word for word.
	r := fullResponse()
	r.Alpha = math.NaN()
	if _, err := renderSolve(&r); err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("NaN alpha: error %v, want json: unsupported value: NaN", err)
	}
}

// TestSolveBodiesMatchEncodingJSON sends a grid of solves through
// Server.Handler() over HTTP — HA8K at 32 modules, every scheme at 0.2,
// 0.3, 0.55, 0.8 and 1.2 of the all-TDP power (infeasible, clamped,
// constrained and unconstrained answers), healthy and at fault level medium
// (quarantined modules), plus HA8K-hybrid under every splitter and at fault
// level high — and requires each body, on the
// miss and on the hit, to equal encoding/json's encoding of the body decoded
// back into a SolveResponse. Shortest floats round-trip exactly, so this
// oracle shares no code with renderSolve. Every body must go out with a
// Content-Length equal to its size and without chunked framing.
func TestSolveBodiesMatchEncodingJSON(t *testing.T) {
	spec := cluster.HA8K()
	allTDP := 32 * float64(spec.Arch.TDP+spec.Arch.DramTDP)
	var cpu, hybrid []SolveRequest
	for _, faults := range []string{"", "medium"} {
		for _, scheme := range core.AllSchemes() {
			for _, frac := range []float64{0.2, 0.3, 0.55, 0.8, 1.2} {
				cpu = append(cpu, SolveRequest{System: "HA8K", Workload: "dgemm", Scheme: scheme.String(),
					BudgetWatts: frac * allTDP, Faults: faults})
			}
		}
	}
	for _, splitter := range core.AllSplitters() {
		hybrid = append(hybrid, SolveRequest{System: "HA8K-hybrid", Workload: "mhd", Scheme: "VaFs",
			BudgetWatts: 9000, Splitter: splitter.String()})
	}
	hybrid = append(hybrid, SolveRequest{System: "HA8K-hybrid", Workload: "mhd", Scheme: "VaFs",
		BudgetWatts: 9000, Faults: "high"})

	var seen struct{ infeasible, clamped, constrained, unconstrained, quarantined, gpu bool }
	for _, grid := range []struct {
		system string
		reqs   []SolveRequest
	}{{"HA8K", cpu}, {"HA8K-hybrid", hybrid}} {
		modules := 32
		if grid.system == "HA8K-hybrid" {
			modules = 16
		}
		s, err := New(Config{Systems: []string{grid.system}, Modules: modules, Seed: 0x5c15})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		for _, req := range grid.reqs {
			for _, disp := range []Disposition{DispMiss, DispHit} {
				r := postForBody(t, hs.URL, req, disp)
				seen.infeasible = seen.infeasible || !r.Feasible
				seen.clamped = seen.clamped || r.Clamped
				seen.constrained = seen.constrained || r.Constrained
				seen.unconstrained = seen.unconstrained || !r.Constrained
				seen.quarantined = seen.quarantined || len(r.Quarantined) > 0
				seen.gpu = seen.gpu || len(r.GPUAllocations) > 0
			}
		}
		hs.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !seen.infeasible || !seen.clamped || !seen.constrained || !seen.unconstrained || !seen.quarantined || !seen.gpu {
		t.Fatalf("the grid no longer covers every kind of answer: %+v", seen)
	}
}

// postForBody posts req, checks the disposition, the framing and the body
// against the encoding/json oracle, and returns the decoded body.
func postForBody(t *testing.T, url string, req SolveRequest, disp Disposition) SolveResponse {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Varpower-Cache") != string(disp) {
		t.Fatalf("%s: status %d, disposition %q, want 200 %s: %s",
			payload, resp.StatusCode, resp.Header.Get("X-Varpower-Cache"), disp, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%s (%s): Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			payload, disp, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	var r SolveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("%s: %v", payload, err)
	}
	want, err := encodeJSON(&r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("%s (%s): body differs from encoding/json\n got: %s\nwant: %s", payload, disp, body, want)
	}
	return r
}
