package measure

import (
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// TestHoldMatchesDraws: a run with a Hold measures exactly what the same
// run drawing its own residuals, uncapped points and run noise measures,
// and the held noise factors lie within 1 ± 3σ.
// HA8K at 32 modules, healthy, under testdata/chaos-plan.json and under the
// generated "high" fault level; per benchmark, one replica runs every
// configuration without the hold and another with it, in the same order,
// so every run also starts from the state the runs before it left. The
// configurations are uncapped, pinned (below, on and above the P-state
// ladder) and capped with each rank's cap in one regime of its module's
// curve: not binding, DVFS, the duty-cycle cliff, all three mixed across
// ranks, and below the idle floor (ErrInfeasible). Each run's result,
// health and error must be deeply equal, and so must a Snapshot of every
// controller after it.
func TestHoldMatchesDraws(t *testing.T) {
	const n = 32
	f, err := os.Open("../../testdata/chaos-plan.json")
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := faults.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	level, err := faults.LevelByName("high", 10)
	if err != nil {
		t.Fatal(err)
	}
	high, err := faults.Generate(0x5c15, level.Spec, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		label string
		plan  *faults.Plan
	}{{"healthy", nil}, {"chaos", chaos}, {"high", high}} {
		sys, ids := testSystem(t, n)
		if sc.plan != nil {
			sys.InstallFaults(faults.MustInjector(sc.plan))
		}
		for _, bench := range []*workload.Benchmark{workload.MHD(), workload.DGEMM(), workload.BT()} {
			hold, err := NewHold(sys, bench, ids)
			if err != nil {
				t.Fatal(err)
			}
			// Run-to-run noise is small: a normal truncated at ±3σ.
			for rank, f := range hold.noise {
				if math.Abs(f-1) > 3*DefaultRunNoiseSigma {
					t.Fatalf("rank %d run noise factor %v beyond 1 ± 3σ", rank, f)
				}
			}
			bare, held := sys.Clone(), sys.Clone()
			for _, c := range holdConfigs(sys, bench, ids) {
				cfg := c.cfg
				want, wantErr := Run(bare, cfg)
				cfg.Hold = hold
				got, gotErr := Run(held, cfg)
				label := sc.label + " " + bench.Name + " " + c.name
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%s: with the hold %+v (error %v), without %+v (error %v)", label, got, gotErr, want, wantErr)
				}
				// Each regime is the one its caps were chosen for.
				switch {
				case c.name == "capped below the idle floor":
					if !errors.Is(wantErr, ErrInfeasible) {
						t.Fatalf("%s: error %v, want ErrInfeasible", label, wantErr)
					}
				case wantErr != nil:
					t.Fatalf("%s: %v", label, wantErr)
				case c.name == "capped at the cliff":
					for _, r := range want.Ranks {
						if !r.Op.Throttled {
							t.Fatalf("%s: rank %d is not duty-cycling", label, r.Rank)
						}
					}
				}
				for _, id := range ids {
					gs, gerr := held.RAPL(id).Snapshot()
					ws, werr := bare.RAPL(id).Snapshot()
					if gs != ws || !reflect.DeepEqual(gerr, werr) {
						t.Fatalf("%s: module %d snapshot %+v (error %v) with the hold, %+v (error %v) without", label, id, gs, gerr, ws, werr)
					}
				}
			}
		}
	}
}

// namedConfig is a configuration with a label for failure messages.
type namedConfig struct {
	name string
	cfg  Config
}

// holdConfigs is TestHoldMatchesDraws's configurations of bench on ids.
func holdConfigs(sys *cluster.System, bench *workload.Benchmark, ids []int) []namedConfig {
	arch := sys.Spec.Arch
	prof := bench.ProfileFor(arch)
	// caps[r][i] is module ids[i]'s cap in regime r: not binding, DVFS,
	// cliff, below the idle floor.
	var caps [4][]units.Watts
	for _, id := range ids {
		cv := sys.Module(id).Curve(prof)
		unc, pmin, floor := cv.Uncapped().CPUPower, cv.CPUPower(arch.FMin), sys.Module(id).IdleFloor()
		caps[0] = append(caps[0], unc+5)
		caps[1] = append(caps[1], (pmin+unc)/2)
		caps[2] = append(caps[2], (floor+pmin)/2)
		caps[3] = append(caps[3], floor/2)
	}
	mixed := make([]units.Watts, len(ids))
	for i := range mixed {
		mixed[i] = caps[i%3][i]
	}
	cfgs := []namedConfig{{"uncapped", Config{Mode: ModeUncapped}}}
	for _, f := range []units.Hertz{arch.FMin / 2, arch.FMin, (arch.FMin + arch.FNom) / 2, arch.FNom, arch.FTurbo} {
		freqs := make([]units.Hertz, len(ids))
		for i := range freqs {
			freqs[i] = f
		}
		cfgs = append(cfgs, namedConfig{"pinned at " + f.String(), Config{Mode: ModePinned, Freqs: freqs}})
	}
	for _, c := range []struct {
		regime string
		caps   []units.Watts
	}{
		{"not binding", caps[0]}, {"in DVFS", caps[1]}, {"at the cliff", caps[2]},
		{"in mixed regimes", mixed}, {"below the idle floor", caps[3]},
	} {
		cfgs = append(cfgs, namedConfig{"capped " + c.regime, Config{Mode: ModeCapped, CPUCaps: c.caps}})
	}
	cfgs = append(cfgs, namedConfig{"uncapped again", Config{Mode: ModeUncapped}})
	for i := range cfgs {
		cfgs[i].cfg.Bench, cfgs[i].cfg.Modules = bench, ids
	}
	return cfgs
}

// TestHoldRefusesLength: a hold drawn for another number of ranks is
// refused before anything runs.
func TestHoldRefusesLength(t *testing.T) {
	sys, ids := testSystem(t, 8)
	hold, err := NewHold(sys, workload.MHD(), ids[:7])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys, Config{Bench: workload.MHD(), Modules: ids, Mode: ModeUncapped, Hold: hold}); err == nil {
		t.Fatal("a 7-rank hold ran 8 ranks")
	}
	if _, err := NewHold(sys, workload.MHD(), []int{8}); err == nil {
		t.Fatal("a hold was drawn for a module outside the system")
	}
}
