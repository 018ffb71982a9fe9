package core

import (
	"reflect"
	"sync"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func poolTestFramework(t *testing.T, modules int) (*Framework, []int) {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8K(), modules, 0x5c15)
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFramework(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fw, ids
}

// TestReplicaPoolRecycledMeasuresLikeFresh: a replica that has been
// borrowed, run hard, and returned must measure byte-identically to a
// fresh clone on its next borrow — the bit-identity invariant pooled
// sweeps rely on.
func TestReplicaPoolRecycledMeasuresLikeFresh(t *testing.T) {
	fw, ids := poolTestFramework(t, 48)
	budget := units.Watts(70 * 48)
	want, err := fw.Clone().Run(workload.BT(), ids, budget, VaPc)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewReplicaPool(fw)
	for cycle := 0; cycle < 3; cycle++ {
		cfw := pool.Get()
		got, err := cfw.Run(workload.BT(), ids, budget, VaPc)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cycle %d: recycled replica measured differently from a fresh clone", cycle)
		}
		pool.Put(cfw)
	}
}

// TestReplicaPoolPoisoning writes sentinel state into a replica — RAPL
// limits, pinned clocks, energy-counter charge, perf-status history,
// shifted poll time — before returning it to the pool. The next borrower
// must never observe any of it: Reset must rewrite every mutable field.
func TestReplicaPoolPoisoning(t *testing.T) {
	fw, ids := poolTestFramework(t, 32)
	budget := units.Watts(70 * 32)
	want, err := fw.Clone().Run(workload.MHD(), ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewReplicaPool(fw)
	cfw := pool.Get()
	// Poison every mutable layer of every module.
	for _, id := range ids {
		ctl := cfw.Sys.RAPL(id)
		if err := ctl.SetPkgLimit(77, 0.002, nil); err != nil {
			t.Fatal(err)
		}
		dev := ctl.Device()
		dev.AccumulateEnergy(1e6, 1e6) // sentinel joules on the counters
		dev.SetPerfStatus(13)          // sentinel frequency ratio
		dev.SetPollTime(42)
		if _, err := cfw.Sys.Governor(id).SetSpeed(cfw.Sys.Spec.Arch.FMin, nil); err != nil {
			t.Fatal(err)
		}
	}
	pool.Put(cfw)

	reborrowed := pool.Get()
	got, err := reborrowed.Run(workload.MHD(), ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("borrower after poisoned Put observed sentinel state")
	}
	pool.Put(reborrowed)

	// The same invariant holds under concurrent borrow/run/poison/return
	// traffic (this part is what the -race CI pass exercises).
	var wg sync.WaitGroup
	errs := make([]error, 4)
	runs := make([]*SchemeRun, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := pool.Get()
			defer pool.Put(w)
			r, err := w.Run(workload.MHD(), ids, budget, VaFs)
			if err != nil {
				errs[g] = err
				return
			}
			for _, id := range ids[:4] {
				w.Sys.RAPL(id).Device().AccumulateEnergy(9e5, 9e5)
			}
			runs[g] = r
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(want, runs[g]) {
			t.Fatalf("goroutine %d measured differently under concurrent pool traffic", g)
		}
	}
}

// TestReplicaPoolBorrowAllocBudget: after warm-up, a Get/Put cycle must not
// clone — recycling a replica is (amortised) allocation-free, which is the
// entire point of pooling on the per-cell hot path. The budget is an
// explicit failing bound, not a measurement.
func TestReplicaPoolBorrowAllocBudget(t *testing.T) {
	fw, _ := poolTestFramework(t, 8)
	pool := NewReplicaPool(fw)
	pool.Put(pool.Get()) // warm the pool
	// A fresh 8-module clone costs dozens of allocations; a recycled borrow
	// costs zero. The pool's free list keeps idle replicas through GC
	// cycles and under the race detector, so every borrow after the warm-up
	// recycles; the best of three batches still discards a batch that the
	// runtime's own bookkeeping charged, while failing if every borrow
	// clones.
	best := testing.AllocsPerRun(200, func() {
		pool.Put(pool.Get())
	})
	for i := 0; i < 2 && best > 2; i++ {
		if avg := testing.AllocsPerRun(200, func() {
			pool.Put(pool.Get())
		}); avg < best {
			best = avg
		}
	}
	if best > 2 {
		t.Fatalf("Get/Put cycle averaged %.1f allocs in the best batch, budget 2", best)
	}
}
