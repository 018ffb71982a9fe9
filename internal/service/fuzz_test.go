package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSolveRequest feeds arbitrary bodies through the request path's
// decode and canonicalisation. Neither may panic, and a request they
// accept must canonicalise to itself under the same solve key — the
// identity the solve cache is keyed on.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget_watts":2400}`,
		`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget":"-5kW"}`,
		`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget":"0W"}`,
		`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget_watts":-5000}`,
		`{"system":"ha8k","workload":"MHD","scheme":"VaFs","budget":"2.4 kW","modules":16,"faults":"none","tenant":"t"}`,
		`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget":"1e308kW"}`,
		`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget_watts":2400,"splitter":"greedy"}`,
		`{"system":"HA8K"} {}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{Systems: []string{"HA8K"}, Modules: 32, Seed: 0x5c15})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Drain(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		if err := decodeBody(httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)), &req); err != nil {
			return
		}
		once, _, _, _, _, err := s.canonical(req)
		if err != nil {
			return
		}
		twice, _, _, _, _, err := s.canonical(once)
		if err != nil {
			t.Fatalf("canonical form %+v rejected on a second pass: %v", once, err)
		}
		if twice != once || solveKey(0, twice) != solveKey(0, once) {
			t.Fatalf("canonicalisation is not idempotent:\n%+v\n%+v", once, twice)
		}
	})
}

// FuzzRecalibrateRequest feeds arbitrary bodies through /v1/recalibrate's
// decode, system lookup and module-id check. None may panic, and a request
// they accept may name only modules the system has.
func FuzzRecalibrateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"system":"HA8K","modules":[99999]}`,
		`{"system":"HA8K","modules":[-1]}`,
		`{"system":"HA8K","modules":[3,3]}`,
		`{"system":"HA8K","modules":[]}`,
		`{"system":"HA8K","modules":[1],"budget_watts":2400}`,
		`{"system":"HA8K","modules":[1]} {}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{Systems: []string{"HA8K"}, Modules: 32, Seed: 0x5c15})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Drain(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RecalibrateRequest
		if err := decodeBody(httptest.NewRequest(http.MethodPost, "/v1/recalibrate", bytes.NewReader(body)), &req); err != nil {
			return
		}
		b, ok := s.baseFor(req.System)
		if !ok {
			return
		}
		n := b.framework().Sys.NumModules()
		if err := checkModuleIDs(req.Modules, n); err != nil {
			return
		}
		for _, id := range req.Modules {
			if id < 0 || id >= n {
				t.Fatalf("accepted module %d outside [0,%d) in %+v", id, n, req)
			}
		}
	})
}
