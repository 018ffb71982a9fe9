package core

import (
	"reflect"
	"testing"

	"varpower/internal/measure"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// gridModels builds every scheme's model of bench on ids the way the
// evaluation grid does: one BuildModels call per group of ModelGroups, each
// on a replica of its own, and, when share is set, one hold for all of
// them (ShareHold).
func gridModels(t *testing.T, pool *ReplicaPool, bench *workload.Benchmark, ids []int, share bool) []*Model {
	t.Helper()
	var models []*Model
	for _, schemes := range ModelGroups(AllSchemes()) {
		fw := pool.Get()
		ms, err := fw.BuildModels(bench, ids, schemes)
		pool.Put(fw)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, ms...)
	}
	if share {
		if err := ShareHold(models); err != nil {
			t.Fatal(err)
		}
	}
	return models
}

// holds returns the distinct holds the models' runs made.
func holds(models []*Model) map[*measure.Hold]bool {
	out := make(map[*measure.Hold]bool)
	for _, m := range models {
		if m.prog != nil && m.prog.hold != nil {
			out[m.prog.hold] = true
		}
	}
	return out
}

// TestShareHoldOneHoldPerBenchmark: at 48 modules, every evaluated
// benchmark's six models, built per group and then sharing one hold, make
// exactly one hold between them where per-group holds make one per group,
// and every run at three budgets (infeasible ones included) deep-equals
// the run of the same model with per-group holds.
func TestShareHoldOneHoldPerBenchmark(t *testing.T) {
	fw, ids := poolTestFramework(t, 48)
	pool := NewReplicaPool(fw)
	groups := len(ModelGroups(AllSchemes()))
	for _, bench := range workload.Evaluated() {
		shared := gridModels(t, pool, bench, ids, true)
		apart := gridModels(t, pool, bench, ids, false)
		ran := 0
		for _, perModule := range []units.Watts{45, 70, 110} {
			budget := perModule * units.Watts(len(ids))
			for i := range shared {
				run := func(m *Model) (*SchemeRun, error) {
					rfw := pool.Get()
					defer pool.Put(rfw)
					rfw.Workers = 1
					return rfw.RunModel(m, budget)
				}
				got, gerr := run(shared[i])
				want, werr := run(apart[i])
				if !reflect.DeepEqual(gerr, werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v at %v: shared hold ran %v (%v), per-group holds %v (%v)",
						bench.Name, shared[i].Scheme, budget, got, gerr, want, werr)
				}
				if gerr == nil {
					ran++
				}
			}
		}
		if ran == 0 {
			t.Fatalf("%s: no model ran at any budget", bench.Name)
		}
		t.Logf("%s: %d of %d runs executed", bench.Name, ran, 3*len(shared))
		if n := len(holds(shared)); n != 1 {
			t.Errorf("%s: %d holds with a shared hold, want 1", bench.Name, n)
		}
		if n := len(holds(apart)); n != groups {
			t.Errorf("%s: %d holds with per-group holds, want %d", bench.Name, n, groups)
		}
	}
}

// TestShareHoldRefusesMixedModels: models of two benchmarks, of two module
// lists or built outside BuildModels do not share a hold, and a refused
// call leaves every model's own hold in place.
func TestShareHoldRefusesMixedModels(t *testing.T) {
	fw, ids := poolTestFramework(t, 16)
	pool := NewReplicaPool(fw)
	mhd := gridModels(t, pool, workload.MHD(), ids, false)
	bt := gridModels(t, pool, workload.BT(), ids, false)
	fewer := gridModels(t, pool, mhd[0].Bench, ids[:8], false)
	literal := &Model{Scheme: VaPc, Bench: mhd[0].Bench, Modules: ids, PMT: mhd[0].PMT}
	for name, ms := range map[string][]*Model{
		"two benchmarks":   {mhd[0], bt[0]},
		"two module lists": {mhd[0], fewer[0]},
		"a literal model":  {mhd[0], literal},
	} {
		progs := make([]*modelProgram, len(ms))
		for i, m := range ms {
			progs[i] = m.prog
		}
		if err := ShareHold(ms); err == nil {
			t.Errorf("%s: ShareHold accepted them", name)
		}
		for i, m := range ms {
			if m.prog != progs[i] {
				t.Errorf("%s: a refused ShareHold changed model %d's hold", name, i)
			}
		}
	}
}
