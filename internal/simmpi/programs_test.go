package simmpi_test

import (
	"fmt"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/simmpi"
	"varpower/internal/units"
	"varpower/internal/workload"
	"varpower/internal/xrand"
)

// TestEvaluatedProgramsMatchReference runs every evaluated benchmark and
// NPB-EP at 1, 8, 12, 27 and 480 ranks on both engines, healthy and with a
// few ranks dying mid-run, under a model shaped like measure's: cycles
// over the rank's frequency plus traffic over the bandwidth at that
// frequency, times the rank's run-to-run noise. The halo programs' torus
// lists are 0, 3, 4, 6 and 6 peers long at those sizes: the one-rank
// table has no peer rows, and the others' six-wide rows carry 3, 2 and 0
// entries of self padding.
func TestEvaluatedProgramsMatchReference(t *testing.T) {
	arch := cluster.HA8K().Arch
	for _, b := range append(workload.Evaluated(), workload.EP()) {
		for _, size := range []int{1, 8, 12, 27, 480} {
			prog, err := b.Program(size, 0x5c15)
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.NewKeyed(0x5c15, xrand.HashString(b.Name), uint64(size))
			freq := make([]units.Hertz, size)
			noise := make([]float64, size)
			for rank := range freq {
				freq[rank] = units.Hertz(rng.Uniform(float64(arch.FMin), float64(arch.FTurbo)))
				noise[rank] = 1 + rng.TruncNormal(0, 0.003, -3, 3)
			}
			model := simmpi.Model(func(rank int, cycles, bytes float64) units.Seconds {
				f := freq[rank]
				t := cycles / float64(f)
				if bytes > 0 {
					t += bytes / arch.MemBWAt(f)
				}
				return units.Seconds(t * noise[rank])
			})
			healthy, err := simmpi.RunFaulty(prog, size, model, simmpi.DefaultNetwork, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			deadAt := make([]units.Seconds, size)
			for rank := range deadAt {
				deadAt[rank] = -1
				if rank%7 == 3 {
					deadAt[rank] = healthy.Elapsed * units.Seconds(rng.Float64())
				}
			}
			for _, fs := range []*simmpi.FaultSpec{nil, {DeadAt: deadAt}} {
				name := fmt.Sprintf("%s/%d/faulty=%v", b.Name, size, fs != nil)
				if msg := simmpi.MatchReference(prog, size, model, simmpi.DefaultNetwork, fs, 64); msg != "" {
					t.Errorf("%s: %s", name, msg)
				}
			}
		}
	}
}
