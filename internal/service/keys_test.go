package service

import (
	"fmt"
	"math"
	"testing"
)

// TestCacheKeysMatchFmt: the solve and model cache keys keep the bytes of
// their fmt.Sprintf forms, which snapshot rows persist.
func TestCacheKeysMatchFmt(t *testing.T) {
	for _, c := range []struct {
		gen uint64
		req SolveRequest
	}{
		{0, SolveRequest{System: "HA8K", Workload: "*DGEMM", Scheme: "VaPc", BudgetWatts: 2400, Modules: 32, Seed: 0x5c15}},
		{7, SolveRequest{System: "HA8K", Workload: "MHD", Scheme: "VaFs", BudgetWatts: 2437.5123456789, Modules: 1920, Seed: 0x5c15, Faults: "high"}},
		{1, SolveRequest{System: "HA8K-hybrid", Workload: "NPB-BT", Scheme: "VaFsOr", BudgetWatts: 14000, Modules: 32, Seed: 0x5c15, Splitter: "efficiency"}},
		{math.MaxUint64, SolveRequest{System: "Summit-lite", Workload: "NPB-EP", Scheme: "Naive", BudgetWatts: 1.25e15, Modules: 100000, Seed: math.MaxUint64, Faults: "low", Splitter: "greedy"}},
		{3, SolveRequest{System: "HA8K", Workload: "NPB-SP", Scheme: "Pc", BudgetWatts: 0.0000004, Modules: 1, Seed: 42}},
		{3, SolveRequest{System: "HA8K", Workload: "NPB-SP", Scheme: "Pc", BudgetWatts: 1e308, Modules: 1, Seed: 42}},
		{3, SolveRequest{System: "HA8K", Workload: "NPB-SP", Scheme: "VaPcOr", BudgetWatts: 999.9999995, Modules: 64, Seed: 1}},
	} {
		r := c.req
		want := fmt.Sprintf("g%d|%s|%s|%s|%.6f|%d|%d|%s|%s",
			c.gen, r.System, r.Workload, r.Scheme, r.BudgetWatts, r.Modules, r.Seed, r.Faults, r.Splitter)
		if got := solveKey(c.gen, r); got != want {
			t.Errorf("solveKey = %q, want %q", got, want)
		}
		want = fmt.Sprintf("g%d|%s|%s|%s|%d|%d|%s",
			c.gen, r.System, r.Workload, r.Scheme, r.Modules, r.Seed, r.Faults)
		if got := pmtKey(c.gen, r); got != want {
			t.Errorf("pmtKey = %q, want %q", got, want)
		}
	}
}
