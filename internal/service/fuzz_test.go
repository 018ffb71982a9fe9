package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
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

// FuzzSolveBody builds a SolveResponse from fuzzed strings, float bits and
// slice shapes, and requires renderSolve's bytes and error to equal
// encoding/json's. floats is read eight bytes at a time, little-endian, as
// float64 bits, cycling; shape picks which slices are nil, empty or filled.
func FuzzSolveBody(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add("HA8K", "dgemm", "", bits(2400, 0.2354, 1.6e9, 2399.9999999999995, 11.25, 70.1, 40.5, 29.6), uint8(0x00), 3)
	f.Add("HA8K-hybrid", "high", "greedy", bits(9000, 0.5, 1.2e9, 8999, 7, 5000, 4000, 0.75, 1.3e9, 200, 150), uint8(0xfe), 2)
	f.Add(`<a href="x">&\`, "\x01\xff\xfe", "a\u2028b", bits(math.NaN(), math.Inf(1), math.Inf(-1)), uint8(0x0e), 1)
	f.Add("s", "", "", bits(math.Copysign(0, -1), 5e-7, 1e21, 1e-6, 5e-324, 1<<53, math.MaxFloat64), uint8(0x01), 4)
	f.Fuzz(func(t *testing.T, system, faults, splitter string, floats []byte, shape uint8, n int) {
		next := 0
		float := func() float64 {
			if len(floats) < 8 {
				return 0
			}
			i := next % (len(floats) / 8)
			next++
			return math.Float64frombits(binary.LittleEndian.Uint64(floats[8*i:]))
		}
		n = int(uint(n) % 9)
		r := SolveResponse{
			System: system, Workload: splitter + system, Scheme: faults, BudgetWatts: float(),
			Modules: n, Seed: uint64(n) << 60, Faults: faults,
			Alpha: float(), FreqHz: float(),
			Feasible: shape&0x10 != 0, Clamped: shape&0x20 != 0, Constrained: shape&0x40 != 0,
			PredictedPowerW: float(), PredictedTimeS: float(),
			Splitter: splitter, CPUBudgetW: float(), GPUBudgetW: float(), GPUAlpha: float(), GPUClockHz: float(),
		}
		// Bit 0 leaves Allocations nil; bit 7 makes the omitempty slices
		// empty rather than nil, and bits 1-3 fill them.
		if shape&0x01 == 0 {
			r.Allocations = make([]ModuleAllocation, n)
			for i := range r.Allocations {
				r.Allocations[i] = ModuleAllocation{Module: i - 1, PModule: float(), PCPU: float(), PDram: float()}
			}
		}
		if shape&0x80 != 0 {
			r.Quarantined, r.GPUQuarantined, r.GPUAllocations = []int{}, []int{}, []GPUAllocation{}
		}
		if shape&0x02 != 0 {
			r.Quarantined = []int{n, -n, math.MaxInt}
		}
		if shape&0x04 != 0 {
			r.GPUQuarantined = []int{n}
		}
		if shape&0x08 != 0 {
			r.GPUAllocations = make([]GPUAllocation, n+1)
			for i := range r.GPUAllocations {
				r.GPUAllocations[i] = GPUAllocation{Device: i, PowerW: float()}
			}
		}
		checkRender(t, &r)
	})
}
