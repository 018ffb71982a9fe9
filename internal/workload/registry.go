package workload

import (
	"fmt"
	"sort"
	"strings"

	"varpower/internal/hw/module"
)

// Benchmark constructors. Wattage coefficients are the HA8K-average-module
// calibration described in the package documentation; see DESIGN.md §2 for
// the constraints each number satisfies (uncapped draw, fmin draw, and the
// Table-4 feasibility boundaries).

// DGEMM returns the *DGEMM model: the HPC Challenge thread-parallel matrix
// multiply (12,288² per socket, Intel MKL). Compute-bound, embarrassingly
// parallel, the most power-hungry benchmark — uncapped it rides the
// platform power ceiling (Figure 2(i): CPU σ ≈ 0.25 W).
func DGEMM() *Benchmark {
	return &Benchmark{
		Name:        "*DGEMM",
		Description: "HPCC matrix multiply (MKL, 12288x12288), compute-bound, no synchronisation",
		Profile: module.PowerProfile{
			Workload: "*DGEMM",
			DynPower: 71.9, StaticPower: 24.1,
			DramBase: 6.0, DramDyn: 6.0,
			ResidualSigma: 0.015,
		},
		Iterations:    30,
		CyclesPerIter: 2.565e9, // ≈0.95 s/iter of frequency-scaled work at 2.7 GHz
		BytesPerIter:  2.5e9,   // ≈5% of iteration time in memory traffic
		Comm:          CommNone,
	}
}

// StarSTREAM returns the *STREAM model: AVX-optimised sustainable-bandwidth
// vectors (24 GB per module). Memory-bound but still frequency-sensitive
// through the uncore; the paper uses it as the PVT microbenchmark because
// it loads CPU and DRAM at the same time.
func StarSTREAM() *Benchmark {
	return &Benchmark{
		Name:        "*STREAM",
		Description: "HPCC sustainable memory bandwidth (AVX, 24 GB vectors), memory-bound, no synchronisation",
		Profile: module.PowerProfile{
			Workload: "*STREAM",
			DynPower: 20.0, StaticPower: 58.0,
			DramBase: 21.7, DramDyn: 4.2,
			ResidualSigma: 0.010,
		},
		Iterations:    50,
		CyclesPerIter: 0.27e9,
		BytesPerIter:  15e9,
		Comm:          CommNone,
	}
}

// EP returns the NPB Embarrassingly Parallel model (Class D): Gaussian
// variate generation, cache-resident, CPU-bound, one final reduction. The
// paper's probe workload for the Figure-1 cross-machine study.
func EP() *Benchmark {
	return &Benchmark{
		Name:        "NPB-EP",
		Description: "NAS EP class D: Marsaglia polar random variates, cache-resident, final reduction only",
		Profile: module.PowerProfile{
			Workload: "NPB-EP",
			DynPower: 55.0, StaticPower: 10.0,
			DramBase: 2.0, DramDyn: 2.0,
			ResidualSigma: 0.010,
		},
		Iterations:    10,
		CyclesPerIter: 2.7e9,
		Comm:          CommFinalReduce,
		MsgBytes:      64,
	}
}

// MHD returns the magneto-hydro-dynamics model: 3-D Modified-Leapfrog
// space-plasma simulation with nearest-neighbour MPI_Sendrecv exchange
// every iteration — the paper's exemplar of synchronisation hiding
// per-rank variation (Figures 2(iii) and 3).
func MHD() *Benchmark {
	return &Benchmark{
		Name:        "MHD",
		Description: "3-D MHD (Modified Leapfrog) space-weather code, halo exchange every step",
		Profile: module.PowerProfile{
			Workload: "MHD",
			DynPower: 51.3, StaticPower: 25.6,
			DramBase: 5.5, DramDyn: 6.7,
			ResidualSigma: 0.020,
		},
		Iterations:    200,
		CyclesPerIter: 0.432e9,
		BytesPerIter:  2.0e9,
		Comm:          CommHalo3D,
		MsgBytes:      256 << 10,
	}
}

// BT returns the NPB Block-Tridiagonal multizone model (Class E): halo
// exchange with static zone-size imbalance. Its power behaviour tracks the
// latent factors worst of all benchmarks (ResidualSigma ≈ 0.05), making it
// the paper's worst calibration case (~10% PMT error) and its largest
// speedup case (5.4× at 96 kW).
func BT() *Benchmark {
	return &Benchmark{
		Name:        "NPB-BT",
		Description: "NAS BT-MZ class E: block tridiagonal solver, multizone halo exchange, imbalanced zones",
		Profile: module.PowerProfile{
			Workload: "NPB-BT",
			DynPower: 42.0, StaticPower: 26.6,
			DramBase: 5.4, DramDyn: 6.5,
			ResidualSigma: 0.050,
		},
		Iterations:     150,
		CyclesPerIter:  0.6075e9,
		BytesPerIter:   3.75e9,
		Comm:           CommHalo3D,
		MsgBytes:       512 << 10,
		ImbalanceSigma: 0.05,
	}
}

// SP returns the NPB Scalar-Pentadiagonal multizone model (Class E).
func SP() *Benchmark {
	return &Benchmark{
		Name:        "NPB-SP",
		Description: "NAS SP-MZ class E: scalar pentadiagonal solver, multizone halo exchange",
		Profile: module.PowerProfile{
			Workload: "NPB-SP",
			DynPower: 41.0, StaticPower: 26.2,
			DramBase: 5.4, DramDyn: 6.5,
			ResidualSigma: 0.025,
		},
		Iterations:     150,
		CyclesPerIter:  0.5443e9,
		BytesPerIter:   3.92e9,
		Comm:           CommHalo3D,
		MsgBytes:       384 << 10,
		ImbalanceSigma: 0.04,
	}
}

// MVMC returns the mVMC-mini model (RIKEN FIBER suite, middle-scale
// setting): variational Monte Carlo with a global reduction per sample
// block.
func MVMC() *Benchmark {
	return &Benchmark{
		Name:        "mVMC",
		Description: "FIBER mVMC-mini: variational Monte Carlo for correlated electrons, allreduce per block",
		Profile: module.PowerProfile{
			Workload: "mVMC",
			DynPower: 40.0, StaticPower: 34.0,
			DramBase: 4.0, DramDyn: 5.0,
			ResidualSigma: 0.020,
		},
		Iterations:    100,
		CyclesPerIter: 0.6885e9,
		BytesPerIter:  2.25e9,
		Comm:          CommAllreduce,
		MsgBytes:      8 << 10,
	}
}

// PVTMicrobenchmark returns the microbenchmark used to build the
// system-level Power Variation Table. The paper uses *STREAM "because it
// exhibited both memory and CPU boundedness" (Section 5.3).
func PVTMicrobenchmark() *Benchmark { return StarSTREAM() }

// registered is one benchmark model of the registry: its name, its
// case-folded name (foldName) and its constructor.
type registered struct {
	name, folded string
	make         func() *Benchmark
}

// registry lists the seven benchmark models in the paper's order, so a
// lookup builds only the benchmark it returns.
var registry = func() []registered {
	out := []registered{
		{name: "*DGEMM", make: DGEMM},
		{name: "*STREAM", make: StarSTREAM},
		{name: "NPB-EP", make: EP},
		{name: "NPB-BT", make: BT},
		{name: "NPB-SP", make: SP},
		{name: "MHD", make: MHD},
		{name: "mVMC", make: MVMC},
	}
	for i := range out {
		out[i].folded = foldName(out[i].name)
	}
	return out
}()

// All returns the seven benchmark models in the paper's order.
func All() []*Benchmark {
	out := make([]*Benchmark, len(registry))
	for i, e := range registry {
		out[i] = e.make()
	}
	return out
}

// Evaluated returns the six benchmarks of the evaluation section (Table 4
// and Figures 7–9) in the paper's row order.
func Evaluated() []*Benchmark {
	return []*Benchmark{DGEMM(), StarSTREAM(), MHD(), BT(), SP(), MVMC()}
}

// ByName looks up a benchmark by its exact or case-folded name; the NPB
// kernels also answer to their bare names ("bt" → NPB-BT). It folds name
// once and builds only the benchmark it returns, a fresh one per call.
func ByName(name string) (*Benchmark, error) {
	var buf [32]byte
	want := appendFolded(buf[:0], name)
	for _, e := range registry {
		// string(want) in a comparison does not allocate.
		if e.name == name || e.folded == string(want) ||
			strings.HasPrefix(e.folded, "npb") && e.folded[len("npb"):] == string(want) {
			return e.make(), nil
		}
	}
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, names)
}

// foldName normalises benchmark names for lookup: lower case, stripping
// '*' and '-'.
func foldName(s string) string {
	return string(appendFolded(make([]byte, 0, len(s)), s))
}

// appendFolded appends foldName(s) to out.
func appendFolded(out []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		case c == '*' || c == '-':
		default:
			out = append(out, c)
		}
	}
	return out
}
