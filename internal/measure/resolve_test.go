package measure

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// TestResolveMatchesRun: Resolve is Run's resolution step on its own, so on
// a fresh system it returns exactly the operating points a Run of the same
// config executes at — in every control mode, healthy and under the
// committed chaos plan, at every width — and an infeasible cap fails both
// with the same error.
func TestResolveMatchesRun(t *testing.T) {
	f, err := os.Open("../../testdata/chaos-plan.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := faults.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		widths = append(widths, p)
	}
	const n = 48 // covers every module the chaos plan names
	caps := make([]units.Watts, n)
	infeasible := make([]units.Watts, n)
	for i := range caps {
		// 60–90 W, a different cap on neighbouring modules.
		caps[i] = units.Watts(60 + 2*(i%16))
		infeasible[i] = caps[i]
	}
	infeasible[29] = 5
	freqs := make([]units.Hertz, n)
	for i := range freqs {
		freqs[i] = cluster.HA8K().Arch.FMin + units.Hertz(i%4)*1e8
	}
	for _, healthy := range []bool{true, false} {
		fresh := func() (*cluster.System, []int) {
			if healthy {
				return testSystem(t, n)
			}
			return faultySystem(t, n, plan)
		}
		for _, mode := range []struct {
			name string
			set  func(cfg *Config)
		}{
			{"uncapped", func(cfg *Config) { cfg.Mode = ModeUncapped }},
			{"capped", func(cfg *Config) { cfg.Mode, cfg.CPUCaps = ModeCapped, caps }},
			{"pinned", func(cfg *Config) { cfg.Mode, cfg.Freqs = ModePinned, freqs }},
		} {
			for _, w := range widths {
				sys, ids := fresh()
				cfg := Config{Bench: workload.MHD(), Modules: ids, Workers: w}
				mode.set(&cfg)
				ops, err := Resolve(sys, cfg)
				if err != nil {
					t.Fatalf("healthy=%v %s workers=%d: Resolve: %v", healthy, mode.name, w, err)
				}
				rsys, _ := fresh()
				res, err := Run(rsys, cfg)
				if err != nil {
					t.Fatalf("healthy=%v %s workers=%d: Run: %v", healthy, mode.name, w, err)
				}
				if len(ops) != len(res.Ranks) {
					t.Fatalf("healthy=%v %s workers=%d: %d points for %d ranks", healthy, mode.name, w, len(ops), len(res.Ranks))
				}
				for rank, r := range res.Ranks {
					if !reflect.DeepEqual(ops[rank], r.Op) {
						t.Fatalf("healthy=%v %s workers=%d rank %d: Resolve %+v, Run %+v", healthy, mode.name, w, rank, ops[rank], r.Op)
					}
				}
			}
		}
		for _, w := range widths {
			sys, ids := fresh()
			cfg := Config{Bench: workload.MHD(), Modules: ids, Mode: ModeCapped, CPUCaps: infeasible, Workers: w}
			_, rerr := Resolve(sys, cfg)
			rsys, _ := fresh()
			_, err := Run(rsys, cfg)
			if !errors.Is(rerr, ErrInfeasible) || !errors.Is(err, ErrInfeasible) || rerr.Error() != err.Error() {
				t.Fatalf("healthy=%v workers=%d infeasible cap: Resolve %v, Run %v; want the same ErrInfeasible", healthy, w, rerr, err)
			}
		}
	}
}
