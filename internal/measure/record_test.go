package measure

import (
	"os"
	"reflect"
	"testing"

	"varpower/internal/faults"
	"varpower/internal/flight"
	"varpower/internal/workload"
)

// TestRunRecordsControlEvents: a recorded run's capture holds, per module,
// exactly the control actions its resolution took: uncapped, the limit
// cleared and, only where a pin was in force, the pin released; capped,
// the programmed limit; pinned, the selected P-state; and after an
// uncapped or capped resolution that fell into duty-cycle throttling, one
// throttle carrying the clock the rank ran at (RankResult.Op.Freq). A rank
// that died gets its death after them. A run that fails commits nothing.
// 12 ranks of MHD on HA8K, healthy, under testdata/chaos-plan.json and
// under a plan that throttles one module and drifts another's cap: test
// runs pin the even ranks' modules, then every configuration of
// holdConfigs runs in turn on the same system (uncapped, pinned, capped in
// every regime, the cliff included, and uncapped again).
func TestRunRecordsControlEvents(t *testing.T) {
	const n = 12
	f, err := os.Open("../../testdata/chaos-plan.json")
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := faults.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	throttle := &faults.Plan{Events: []faults.Event{
		{Module: 4, Kind: faults.KindThermalThrottle, Magnitude: 0.3},
		{Module: 9, Kind: faults.KindCapDrift, Magnitude: 1.2},
	}}
	bench := workload.MHD()
	for _, sc := range []struct {
		label string
		plan  *faults.Plan
	}{{"healthy", nil}, {"chaos", chaos}, {"throttle", throttle}} {
		sys, ids := testSystem(t, n)
		if sc.plan != nil {
			sys.InstallFaults(faults.MustInjector(sc.plan))
		}
		tester, err := NewTester(sys, bench)
		if err != nil {
			t.Fatal(err)
		}
		pinned := make(map[int]bool)
		for i := 0; i < n; i += 2 {
			m, err := tester.Member(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tester.Run(m, sys.Spec.Arch.FNom, nil); err != nil {
				t.Fatal(err)
			}
			pinned[ids[i]] = true
		}
		throttles := 0
		for _, c := range holdConfigs(sys, bench, ids) {
			label := sc.label + " " + c.name
			cfg := c.cfg
			cfg.Recorder = flight.New(flight.Config{Hz: -1})
			res, err := Run(sys, cfg)
			runs := cfg.Recorder.Snapshot().Runs
			if err != nil {
				if c.name != "capped below the idle floor" || len(runs) != 0 {
					t.Fatalf("%s: error %v, %d runs committed", label, err, len(runs))
				}
				continue
			}
			dead := make(map[int]bool)
			for _, rank := range res.DeadRanks() {
				dead[rank] = true
			}
			var want []flight.Event
			for rank, id := range ids {
				event := func(kind flight.EventKind, value float64) {
					want = append(want, flight.Event{Module: id, Kind: kind, Value: value})
				}
				r := res.Ranks[rank]
				switch cfg.Mode {
				case ModeUncapped:
					event(flight.EventCapClear, 0)
					if pinned[id] {
						event(flight.EventFreqRelease, 0)
					}
					pinned[id] = false
				case ModeCapped:
					event(flight.EventCapSet, float64(cfg.CPUCaps[rank]))
				case ModePinned:
					event(flight.EventFreqPin, float64(sys.Spec.Arch.QuantizeDown(cfg.Freqs[rank])))
					pinned[id] = true
				}
				if r.Op.Throttled && cfg.Mode != ModePinned {
					event(flight.EventThrottle, float64(r.Op.Freq))
					throttles++
				}
				if dead[rank] {
					event(flight.EventModuleDeath, float64(r.End))
				}
			}
			if len(runs) != 1 {
				t.Fatalf("%s: %d runs committed, want 1", label, len(runs))
			}
			if got := runs[0].Events; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: events\n%v\nwant\n%v", label, got, want)
			}
		}
		if throttles == 0 {
			t.Errorf("%s: no rank throttled", sc.label)
		}
	}
}
