package rapl

import (
	"sync"
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/hw/msr"
)

// TestControllerConcurrentEnergyStress overlaps the three things a parallel
// measurement engine does to RAPL at once: an accounting goroutine
// advancing the energy counters, a monitoring goroutine reading them
// through Snapshot deltas, and a control goroutine reprogramming the package
// limit and re-resolving the operating point. One controller per goroutine
// group runs on its own module (the engine's distinct-module contract),
// while the monitor shares the accountant's device — the counter path is
// the one surface that must be safe under same-device concurrency. Run
// under -race this is the package's data-race sentinel.
func TestControllerConcurrentEnergyStress(t *testing.T) {
	const (
		modules    = 4
		iterations = 1500
	)
	prof := testProfile()
	var wg sync.WaitGroup
	for id := 0; id < modules; id++ {
		m := module.New(id, testArch(), 7)
		c := NewController(m, msr.NewDevice(130), DefaultControl, 7)
		op, ok := c.OperatingPoint(prof)
		if !ok {
			t.Fatal("no uncapped operating point")
		}
		// Accountant: advances the counters in fixed virtual-time steps.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				c.AccountEnergy(prof, op, 0.01, 0.002)
			}
		}()
		// Monitor: polls energy deltas on the same device; wrap-safe deltas
		// are never negative and never exceed what the accountant can have
		// added in total.
		wg.Add(1)
		go func() {
			defer wg.Done()
			limit := float64(iterations) * 0.012 * float64(op.CPUPower+op.DramPower)
			for i := 0; i < iterations/4; i++ {
				snap, err := c.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				now, err := c.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				pkg, dram := now.Since(snap)
				if float64(pkg) < 0 || float64(dram) < 0 {
					t.Errorf("negative energy delta pkg=%v dram=%v", pkg, dram)
					return
				}
				if float64(pkg) > limit || float64(dram) > limit {
					t.Errorf("energy delta pkg=%v dram=%v exceeds plausible total %v", pkg, dram, limit)
					return
				}
			}
		}()
		// Controller: reprograms the limit and re-resolves the operating
		// point while the others run.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations/4; i++ {
				if err := c.SetPkgLimit(60, 0.001, nil); err != nil {
					t.Error(err)
					return
				}
				if _, ok := c.OperatingPoint(prof); !ok {
					t.Error("no operating point under 60 W cap")
					return
				}
				if err := c.ClearPkgLimit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
