package measure

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"varpower/internal/faults"
	"varpower/internal/parallel"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// TestRunWorkerDeterminism: a measured run — operating points, energies,
// elapsed and sync times for every rank — must be deep-equal whether it is
// made alone or by one of several sweep workers running measured runs on
// clones of one system at once, in every enforcement mode.
func TestRunWorkerDeterminism(t *testing.T) {
	widths := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		widths = append(widths, p)
	}
	const n, runs = 96, 4
	sys, ids := testSystem(t, n)
	caps := make([]units.Watts, n)
	freqs := make([]units.Hertz, n)
	for i := range caps {
		caps[i] = 65
		freqs[i] = sys.Spec.Arch.FMin
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"uncapped", Config{Mode: ModeUncapped}},
		{"capped", Config{Mode: ModeCapped, CPUCaps: caps}},
		{"pinned", Config{Mode: ModePinned, Freqs: freqs}},
	} {
		cfg := mode.cfg
		cfg.Bench, cfg.Modules = workload.MHD(), ids
		ref, err := Run(sys.Clone(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		for _, w := range widths {
			got, err := parallel.Map(w, runs, func(int) (Result, error) {
				return Run(sys.Clone(), cfg)
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mode.name, w, err)
			}
			for i, res := range got {
				if !reflect.DeepEqual(ref, res) {
					t.Fatalf("%s: run %d of %d workers differs from the run made alone", mode.name, i, w)
				}
			}
		}
	}
}

// TestPooledRunnerMatchesFreshRun: a Runner that keeps its memory across
// runs measures exactly what a fresh Run measures. Two replicas of one
// system make the same sequence of runs — every control mode on all 48
// ranks and on the first 24, a capped run that fails at rank k, and an
// uncapped run after it — one replica through a single Runner, the other
// through Run; every result and error must be deeply equal. Healthy, and
// under a plan that kills a module mid-run, drops a module's energy polls
// and slows a third module down.
func TestPooledRunnerMatchesFreshRun(t *testing.T) {
	const n, k = 48, 29
	plan := &faults.Plan{Events: []faults.Event{
		{Module: 2, Kind: faults.KindModuleDeath, Start: 6},
		{Module: 5, Kind: faults.KindDropMSR, Start: 0, Duration: 20},
		{Module: 7, Kind: faults.KindSlowNode, Magnitude: 1.3},
	}}
	for _, p := range []*faults.Plan{nil, plan} {
		sys, ids := testSystem(t, n)
		if p != nil {
			sys.InstallFaults(faults.MustInjector(p))
		}
		caps := make([]units.Watts, n)
		freqs := make([]units.Hertz, n)
		for i := range caps {
			caps[i] = 65
			freqs[i] = sys.Spec.Arch.FMin
		}
		infeasible := slices.Clone(caps)
		infeasible[k] = 1
		var cfgs []Config
		for _, m := range []int{n, n / 2} {
			cfgs = append(cfgs,
				Config{Modules: ids[:m], Mode: ModeUncapped},
				Config{Modules: ids[:m], Mode: ModeCapped, CPUCaps: caps[:m]},
				Config{Modules: ids[:m], Mode: ModePinned, Freqs: freqs[:m]},
			)
		}
		cfgs = append(cfgs,
			Config{Modules: ids, Mode: ModeCapped, CPUCaps: infeasible},
			Config{Modules: ids, Mode: ModeUncapped},
		)
		pooled, fresh := sys.Clone(), sys.Clone()
		var r Runner
		for i, cfg := range cfgs {
			cfg.Bench = workload.MHD()
			got, gotErr := r.Run(pooled, cfg)
			want, wantErr := Run(fresh, cfg)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("faulty=%v run %d (%v, %d ranks): pooled %+v (error %v), fresh %+v (error %v)",
					p != nil, i, cfg.Mode, len(cfg.Modules), got, gotErr, want, wantErr)
			}
			if (gotErr != nil) != (i == len(cfgs)-2) {
				t.Fatalf("faulty=%v run %d: error %v", p != nil, i, gotErr)
			}
		}
	}
}
