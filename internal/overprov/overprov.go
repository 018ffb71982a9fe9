// Package overprov answers the hardware-overprovisioning question that
// frames the paper (its Sections 2.2 and 7, citing Patki et al. and
// Sarood): given a fixed application power budget on a machine with more
// modules than the budget can fully power, how many modules should the job
// actually use?
//
// Fewer modules run closer to full frequency; more modules add parallelism
// but force a lower common α (and below ΣPmin the configuration cannot run
// at all). The analysis strong-scales the application across candidate
// module counts, budgets each configuration with the variation-aware
// framework, and reports the elapsed-time curve and its optimum.
package overprov

import (
	"fmt"

	"varpower/internal/core"
	"varpower/internal/parallel"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Point is one configuration of the sweep.
type Point struct {
	Modules int
	// CmAvg is the average power available per module.
	CmAvg units.Watts
	// Alpha and Freq are the budget solution (zero when infeasible).
	Alpha float64
	Freq  units.Hertz
	// Elapsed is the strong-scaled application time (0 when infeasible).
	Elapsed units.Seconds
	// Feasible is false when the configuration cannot meet the budget
	// even at fmin.
	Feasible bool
	// Constrained is false when the budget exceeds the configuration's
	// uncapped draw (extra modules would be "free" — the classic
	// overprovisioning signal).
	Constrained bool
}

// Result is the full sweep.
type Result struct {
	Bench  string
	Budget units.Watts
	Points []Point
	// Best indexes the fastest feasible point.
	Best int
}

// StrongScaled returns a copy of the benchmark whose per-rank work is the
// reference configuration's total work divided over n ranks — the
// strong-scaling semantics an overprovisioning decision is about. The
// per-peer halo message shrinks with the per-rank subdomain's surface
// (∝ (refRanks/n)^(2/3)).
func StrongScaled(b *workload.Benchmark, refRanks, n int) *workload.Benchmark {
	out := *b
	ratio := float64(refRanks) / float64(n)
	out.CyclesPerIter = b.CyclesPerIter * ratio
	out.BytesPerIter = b.BytesPerIter * ratio
	if b.MsgBytes > 0 {
		surface := pow23(ratio)
		out.MsgBytes = b.MsgBytes * surface
	}
	return &out
}

// pow23 computes x^(2/3) without importing math for a single call chain.
func pow23(x float64) float64 {
	// cube root via Newton iterations, then square.
	if x <= 0 {
		return 0
	}
	c := x
	for i := 0; i < 40; i++ {
		c = (2*c + x/(c*c)) / 3
	}
	return c * c
}

// Analyze sweeps the candidate module counts. refRanks defines the work
// unit: the benchmark's built-in per-rank work is taken as the per-rank
// share when refRanks modules are used. The scheme must be one of the
// variation-aware ones; each configuration uses the first n modules of the
// framework's system.
func Analyze(fw *core.Framework, bench *workload.Benchmark, budget units.Watts,
	refRanks int, counts []int, scheme core.Scheme) (*Result, error) {

	if len(counts) == 0 {
		return nil, fmt.Errorf("overprov: no module counts to sweep")
	}
	if refRanks < 1 {
		return nil, fmt.Errorf("overprov: reference rank count %d", refRanks)
	}
	for _, n := range counts {
		if n < 1 || n > fw.Sys.NumModules() {
			return nil, fmt.Errorf("overprov: %d modules outside [1, %d]", n, fw.Sys.NumModules())
		}
	}
	res := &Result{Bench: bench.Name, Budget: budget, Best: -1}
	// Every configuration reuses modules [0, n), so concurrent points would
	// fight over the same RAPL limits and pinned frequencies on a shared
	// system — each sweep point therefore runs on its own framework replica,
	// borrowed from a pool (reset to fresh-clone state between points).
	// The replicas measure byte-identically to the original, and the serial
	// path takes the same replica-per-point route, so the curve is identical
	// for every worker count (fw.Workers; < 1 selects GOMAXPROCS).
	pool := core.NewReplicaPool(fw)
	var err error
	res.Points, err = parallel.Map(fw.Workers, len(counts), func(i int) (Point, error) {
		n := counts[i]
		ids := make([]int, n)
		for k := range ids {
			ids[k] = k
		}
		scaled := StrongScaled(bench, refRanks, n)
		pt := Point{Modules: n, CmAvg: budget / units.Watts(float64(n))}
		cfw := pool.Get()
		defer pool.Put(cfw)
		run, err := cfw.Run(scaled, ids, budget, scheme)
		if err == nil {
			pt.Feasible = true
			pt.Constrained = run.Alloc.Constrained
			pt.Alpha = run.Alloc.Alpha
			pt.Freq = run.Alloc.Freq
			pt.Elapsed = run.Result.Elapsed
		} else if _, ok := err.(core.ErrBudgetInfeasible); !ok {
			return Point{}, fmt.Errorf("overprov: %d modules: %w", n, err)
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range res.Points {
		if pt.Feasible && (res.Best < 0 || pt.Elapsed < res.Points[res.Best].Elapsed) {
			res.Best = i
		}
	}
	if res.Best < 0 {
		return nil, fmt.Errorf("overprov: no feasible configuration under %v", budget)
	}
	return res, nil
}
