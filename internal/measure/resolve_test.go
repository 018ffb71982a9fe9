package measure

import (
	"errors"
	"os"
	"reflect"
	"slices"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// TestResolveMatchesRun: Resolve is Run's resolution step on its own, so on
// a fresh system it returns exactly the operating points a Run of the same
// config executes at — in every control mode, healthy and under the
// committed chaos plan, on distinct modules and on a list that runs
// modules 0–15 a second time under other caps and clocks — and an
// infeasible cap fails both with the same error.
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
	const n = 48 // covers every module the chaos plan names
	for _, healthy := range []bool{true, false} {
		fresh := func() (*cluster.System, []int) {
			if healthy {
				return testSystem(t, n)
			}
			return faultySystem(t, n, plan)
		}
		_, ids := fresh()
		for _, list := range []struct {
			name    string
			modules []int
		}{
			{"distinct", ids},
			{"repeated", append(slices.Clone(ids), ids[:16]...)},
		} {
			m := len(list.modules)
			caps := make([]units.Watts, m)
			freqs := make([]units.Hertz, m)
			for i := range caps {
				// 60–92 W and five clocks, neither repeating with the
				// list's second pass over modules 0–15.
				caps[i] = units.Watts(60 + 2*(i%17))
				freqs[i] = cluster.HA8K().Arch.FMin + units.Hertz(i%5)*1e8
			}
			infeasible := slices.Clone(caps)
			infeasible[29] = 5
			for _, mode := range []struct {
				name string
				set  func(cfg *Config)
			}{
				{"uncapped", func(cfg *Config) { cfg.Mode = ModeUncapped }},
				{"capped", func(cfg *Config) { cfg.Mode, cfg.CPUCaps = ModeCapped, caps }},
				{"pinned", func(cfg *Config) { cfg.Mode, cfg.Freqs = ModePinned, freqs }},
			} {
				label := list.name + " " + mode.name
				sys, _ := fresh()
				cfg := Config{Bench: workload.MHD(), Modules: list.modules}
				mode.set(&cfg)
				ops, err := Resolve(sys, cfg)
				if err != nil {
					t.Fatalf("healthy=%v %s: Resolve: %v", healthy, label, err)
				}
				rsys, _ := fresh()
				res, err := Run(rsys, cfg)
				if err != nil {
					t.Fatalf("healthy=%v %s: Run: %v", healthy, label, err)
				}
				if len(ops) != len(res.Ranks) {
					t.Fatalf("healthy=%v %s: %d points for %d ranks", healthy, label, len(ops), len(res.Ranks))
				}
				for rank, r := range res.Ranks {
					if !reflect.DeepEqual(ops[rank], r.Op) {
						t.Fatalf("healthy=%v %s rank %d: Resolve %+v, Run %+v", healthy, label, rank, ops[rank], r.Op)
					}
				}
			}
			sys, _ := fresh()
			cfg := Config{Bench: workload.MHD(), Modules: list.modules, Mode: ModeCapped, CPUCaps: infeasible}
			_, rerr := Resolve(sys, cfg)
			rsys, _ := fresh()
			_, err := Run(rsys, cfg)
			if !errors.Is(rerr, ErrInfeasible) || !errors.Is(err, ErrInfeasible) || rerr.Error() != err.Error() {
				t.Fatalf("healthy=%v %s infeasible cap: Resolve %v, Run %v; want the same ErrInfeasible", healthy, list.name, rerr, err)
			}
		}
	}
}
