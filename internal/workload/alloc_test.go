package workload

import (
	"testing"

	"varpower/internal/simmpi"
	"varpower/internal/units"
)

// The budgets below are explicit failing bounds, not measurements: programs
// pre-box their per-rank ops at build time, so serving tables and the
// schedule is allocation-free, and a whole DES run allocates only its
// result and its resolved scratch. A regression that reintroduces
// per-round boxing (the old 36%-of-all-allocations hot spot) trips these
// immediately.

// TestRoundAllocBudget: Program.Tables must return the pre-built tables and
// Program.Round a table index for every communication pattern — zero
// allocations per call, any round, any rank's op.
func TestRoundAllocBudget(t *testing.T) {
	for _, b := range []*Benchmark{DGEMM(), MHD(), MVMC(), EP()} {
		prog, err := b.Program(64, 42)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			for r := 0; r < 4; r++ {
				tab := prog.Tables()[prog.Round(r)]
				for rank := 0; rank < 64; rank++ {
					_ = tab[rank]
				}
			}
		})
		if avg != 0 {
			t.Errorf("%s: %.1f allocs per 4 rounds of Tables and Round calls, budget 0", b.Name, avg)
		}
	}
}

// TestCollectiveRunAllocBudget: one full simmpi run — every compute round,
// halo exchange or collective, and the finalize barrier — must stay within
// a fixed handful of allocations (the per-rank result slice and the
// run's resolved tables and clocks), independent of round count.
func TestCollectiveRunAllocBudget(t *testing.T) {
	model := simmpi.Model(func(rank int, cycles, bytes float64) units.Seconds {
		return units.Seconds(cycles / 2.7e9)
	})
	for _, b := range []*Benchmark{MHD(), MVMC(), EP()} {
		prog, err := b.Program(64, 42)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := simmpi.RunFaulty(prog, 64, model, simmpi.DefaultNetwork, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 8 {
			t.Errorf("%s: %.1f allocs per run, budget 8", b.Name, avg)
		}
	}
}
