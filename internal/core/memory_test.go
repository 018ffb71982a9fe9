package core

import (
	"reflect"
	"slices"
	"testing"

	"varpower/internal/faults"
	"varpower/internal/flight"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// TestReplicaRunMemoryReuse: a pooled replica keeps its run memory (the
// measure.Runner with its batch, operating points and DES scratch, and the
// caps and clocks it programs) across borrows, and that memory never
// shows in a result. After each of a run on a longer module list, a
// recorded run and a run that fails part-way (a cap below its module's
// idle floor at rank k, after ranks 0…k−1 resolved), the same replica's
// next runs of VaPc and VaFs models deep-equal a fresh clone's. At 48 and
// 480 ranks, healthy and under testdata/chaos-plan.json (dying, slow and
// drifting modules, dropped and spiked counter reads), and the results
// the replica returned before stay as they were.
func TestReplicaRunMemoryReuse(t *testing.T) {
	bench := workload.MHD()
	for _, n := range []int{48, 480} {
		for _, plan := range []*faults.Plan{nil, chaosPlan(t)} {
			name := "healthy"
			if plan != nil {
				name = "chaos"
			}
			sys := calibrationSystem(2*n, plan)
			fw, err := NewFrameworkWorkers(sys, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			all, err := sys.AllocateFirst(2 * n)
			if err != nil {
				t.Fatal(err)
			}
			ids := all[:n]
			budget := units.Watts(70 * n)
			var models []*Model
			for _, s := range []Scheme{VaPc, VaFs} {
				m, err := fw.Clone().BuildModel(bench, ids, s)
				if err != nil {
					t.Fatal(err)
				}
				models = append(models, m)
			}
			longer, err := fw.Clone().BuildModel(bench, all, VaPc)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*SchemeRun, len(models))
			for i, m := range models {
				if want[i], err = fw.Clone().RunModel(m, budget); err != nil {
					t.Fatalf("%d ranks, %s: %v", n, name, err)
				}
			}
			alloc, err := models[0].Allocate(sys.Spec, budget)
			if err != nil {
				t.Fatal(err)
			}
			failing := *alloc
			failing.Entries = slices.Clone(alloc.Entries)
			failing.Entries[n/2].Pcpu = 1

			pool := NewReplicaPool(fw)
			replica := pool.Get()
			pool.Put(replica)
			var kept []*SchemeRun
			for _, prev := range []struct {
				name string
				run  func(r *Framework) error
			}{
				{"a run on a longer module list", func(r *Framework) error {
					_, err := r.RunModel(longer, 2*budget)
					return err
				}},
				{"a recorded run", func(r *Framework) error {
					r.Recorder = flight.New(flight.Config{})
					_, err := r.RunModel(models[1], budget)
					return err
				}},
				{"a run failing part-way", func(r *Framework) error {
					if _, err := r.Execute(bench, ids, &failing, VaPc); err == nil {
						t.Fatalf("%d ranks, %s: a cap of 1 W at rank %d ran", n, name, n/2)
					}
					return nil
				}},
			} {
				r := pool.Get()
				if r != replica {
					t.Fatalf("%d ranks, %s: the pool handed out another replica", n, name)
				}
				if err := prev.run(r); err != nil {
					t.Fatalf("%d ranks, %s, %s: %v", n, name, prev.name, err)
				}
				pool.Put(r)
				for i, m := range models {
					r = pool.Get()
					got, err := r.RunModel(m, budget)
					pool.Put(r)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("%d ranks, %s: after %s, the replica's %v run differs from a fresh clone's", n, name, prev.name, m.Scheme)
					}
					kept = append(kept, got)
				}
			}
			for i, got := range kept {
				if !reflect.DeepEqual(got, want[i%len(want)]) {
					t.Fatalf("%d ranks, %s: a returned run changed under the replica's later runs", n, name)
				}
			}
		}
	}
}
