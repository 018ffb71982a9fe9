// Package workload models the paper's benchmarks (Section 3.3) as analytic
// applications: each benchmark is a point in the three-dimensional space
// that determines its behaviour under power caps —
//
//   - power draw: how hard it loads CPU (dynamic vs static share) and DRAM,
//   - frequency sensitivity: the split between frequency-scaled cycles and
//     bandwidth-bound memory traffic,
//   - synchronisation: none (*DGEMM, *STREAM), halo exchange every
//     iteration (MHD, NPB-BT/SP multizone), or collective reductions
//     (NPB-EP, mVMC).
//
// The wattage coefficients are calibrated to the paper's HA8K measurements
// (e.g. uncapped *DGEMM ≈ 100.8 W CPU / 12.0 W DRAM per module; MHD ≈
// 83.9 / 12.6) and to the Table-4 feasibility grid: a benchmark's module
// power at fmin decides which system-level constraints are infeasible ("–")
// and its uncapped draw decides which are not actually constraining ("•").
package workload

import (
	"fmt"
	"sort"

	"varpower/internal/hw/module"
	"varpower/internal/simmpi"
	"varpower/internal/units"
	"varpower/internal/xrand"
)

// CommPattern is a benchmark's synchronisation structure.
type CommPattern int

// Communication patterns.
const (
	// CommNone: ranks run independently (embarrassingly parallel).
	CommNone CommPattern = iota
	// CommHalo3D: nearest-neighbour Sendrecv on a 3-D torus every iteration.
	CommHalo3D
	// CommAllreduce: a global reduction every iteration.
	CommAllreduce
	// CommFinalReduce: a single reduction after all iterations.
	CommFinalReduce
)

// String names the pattern.
func (c CommPattern) String() string {
	switch c {
	case CommNone:
		return "none"
	case CommHalo3D:
		return "halo-3d"
	case CommAllreduce:
		return "allreduce"
	case CommFinalReduce:
		return "final-reduce"
	default:
		return fmt.Sprintf("CommPattern(%d)", int(c))
	}
}

// Benchmark is one application model.
type Benchmark struct {
	Name        string
	Description string

	// Profile carries the power coefficients (reference: HA8K's average
	// module; other architectures scale by TDP ratio via ProfileFor).
	Profile module.PowerProfile

	// Iterations of the main loop (between the paper's PMMD markers).
	Iterations int
	// CyclesPerIter is the frequency-scaled work per rank per iteration.
	CyclesPerIter float64
	// BytesPerIter is the bandwidth-bound memory traffic per rank per
	// iteration.
	BytesPerIter float64

	Comm CommPattern
	// MsgBytes is the per-peer message size for halo exchanges or the
	// reduction payload for collectives.
	MsgBytes float64

	// ImbalanceSigma is the per-rank static work spread (multizone codes
	// like NPB-BT/SP have unequal zones; 0 for perfectly balanced codes).
	ImbalanceSigma float64
}

// Validate reports an error for inconsistent benchmark definitions.
func (b *Benchmark) Validate() error {
	switch {
	case b.Name == "":
		return fmt.Errorf("workload: benchmark with empty name")
	case b.Iterations < 1:
		return fmt.Errorf("workload: %s has %d iterations", b.Name, b.Iterations)
	case b.CyclesPerIter < 0 || b.BytesPerIter < 0:
		return fmt.Errorf("workload: %s has negative work", b.Name)
	case b.CyclesPerIter == 0 && b.BytesPerIter == 0:
		return fmt.Errorf("workload: %s does no work", b.Name)
	case b.ImbalanceSigma < 0 || b.ImbalanceSigma > 0.5:
		return fmt.Errorf("workload: %s imbalance sigma %v outside [0, 0.5]", b.Name, b.ImbalanceSigma)
	case b.Profile.Workload != b.Name:
		return fmt.Errorf("workload: %s profile is keyed %q", b.Name, b.Profile.Workload)
	}
	return nil
}

// ProfileFor returns the benchmark's power profile scaled to the target
// architecture. Reference coefficients are calibrated on HA8K (130 W TDP /
// 62 W DRAM TDP); other parts scale proportionally to their TDPs.
func (b *Benchmark) ProfileFor(arch *module.Arch) module.PowerProfile {
	const refTDP, refDramTDP = 130.0, 62.0
	p := b.Profile
	if k := float64(arch.TDP) / refTDP; k != 1 {
		p = p.ScaleCPU(k)
	}
	if k := float64(arch.DramTDP) / refDramTDP; k != 1 {
		p = p.ScaleDRAM(k)
	}
	return p
}

// Imbalance returns rank's static work multiplier (mean 1), deterministic
// in (seed, benchmark, rank).
func (b *Benchmark) Imbalance(seed uint64, rank int) float64 {
	if b.ImbalanceSigma == 0 {
		return 1
	}
	rng := xrand.NewKeyed(seed, xrand.HashString("imbalance"), xrand.HashString(b.Name), uint64(rank))
	v := 1 + rng.TruncNormal(0, b.ImbalanceSigma, -3, 3)
	if v < 0.1 {
		v = 0.1
	}
	return v
}

// SequentialTime returns the time one rank needs per iteration at frequency
// f on the given architecture, before synchronisation: cycles/f plus
// traffic/BW(f). It is the Model side of the DES.
func (b *Benchmark) SequentialTime(arch *module.Arch, f units.Hertz, imbalance float64) units.Seconds {
	if f <= 0 {
		// A module that cannot run (below its idle floor) would never
		// finish; callers are expected to reject such operating points
		// before simulating. Guard with an effectively-infinite time.
		return units.Seconds(1e18)
	}
	cpu := b.CyclesPerIter * imbalance / float64(f)
	mem := 0.0
	if b.BytesPerIter > 0 {
		mem = b.BytesPerIter * imbalance / arch.MemBWAt(f)
	}
	return units.Seconds(cpu + mem)
}

// FrequencySensitivity returns the fraction of per-iteration time that
// scales with frequency at the architecture's nominal point — the
// "CPU-boundedness" the paper discusses in Section 4.3.
func (b *Benchmark) FrequencySensitivity(arch *module.Arch) float64 {
	cpu := b.CyclesPerIter / float64(arch.FNom)
	mem := 0.0
	if b.BytesPerIter > 0 {
		mem = b.BytesPerIter / arch.MemBWAt(arch.FNom)
	}
	if cpu+mem == 0 {
		return 0
	}
	return cpu / (cpu + mem)
}

// Program builds the benchmark's SPMD program for the given communicator
// size. Halo patterns are laid out on a near-cubic 3-D torus.
//
// The program is at most two op tables — each rank's compute op and its
// halo exchange or collective — and a schedule that alternates them (or
// ends on one final reduce). Every op is built and boxed once here, and
// the imbalance draws and torus neighbour lists once per rank; the
// simulator resolves each table once per run.
func (b *Benchmark) Program(size int, seed uint64) (simmpi.Program, error) {
	if size < 1 {
		return nil, fmt.Errorf("workload: program size %d", size)
	}
	nt := 1
	if b.Comm != CommNone {
		nt = 2
	}
	// One backing array for both tables.
	ops := make([]simmpi.Op, nt*size)
	compute, comm := ops[:size], ops[size:]
	for rank := 0; rank < size; rank++ {
		w := b.Imbalance(seed, rank)
		compute[rank] = simmpi.Compute{
			Cycles: b.CyclesPerIter * w,
			Bytes:  b.BytesPerIter * w,
		}
	}
	switch b.Comm {
	case CommHalo3D:
		topo := NewTorus3D(size)
		// One flat backing array for every rank's neighbour list; capacity 6
		// covers the worst case (±1 in three dimensions), so the sub-slices
		// handed to Sendrecv ops stay valid — no reallocation can occur.
		flat := make([]int, 0, 6*size)
		for rank := 0; rank < size; rank++ {
			start := len(flat)
			flat = topo.AppendNeighbors(flat, rank)
			comm[rank] = simmpi.Sendrecv{Peers: flat[start:len(flat):len(flat)], Bytes: b.MsgBytes}
		}
	case CommAllreduce, CommFinalReduce:
		var op simmpi.Op = simmpi.Allreduce{Bytes: b.MsgBytes}
		for rank := range comm {
			comm[rank] = op
		}
	}
	return &program{bench: b, tables: [2][]simmpi.Op{compute, comm}, ntables: nt}, nil
}

// program implements simmpi.Program for a Benchmark: tables[0] holds each
// rank's compute op, tables[1] its halo exchange or collective.
type program struct {
	bench   *Benchmark
	tables  [2][]simmpi.Op
	ntables int
}

// Tables implements simmpi.Program.
func (p *program) Tables() [][]simmpi.Op { return p.tables[:p.ntables] }

// Rounds implements simmpi.Program: one compute round per iteration, plus a
// communication round per iteration for iterative patterns, plus one final
// collective for CommFinalReduce.
func (p *program) Rounds() int {
	switch p.bench.Comm {
	case CommHalo3D, CommAllreduce:
		return 2 * p.bench.Iterations
	case CommFinalReduce:
		return p.bench.Iterations + 1
	default:
		return p.bench.Iterations
	}
}

// Round implements simmpi.Program: iterative patterns alternate compute
// and communication, CommFinalReduce communicates once after its last
// iteration, and CommNone only computes.
func (p *program) Round(r int) int {
	switch p.bench.Comm {
	case CommHalo3D, CommAllreduce:
		return r % 2
	case CommFinalReduce:
		if r < p.bench.Iterations {
			return 0
		}
		return 1
	default:
		return 0
	}
}

// Torus3D lays ranks out on a near-cubic 3-D torus for halo exchanges.
type Torus3D struct {
	Dims [3]int
}

// NewTorus3D factors size into three near-equal dimensions (padding is not
// needed: the factorisation is exact because we only shrink factors that
// divide size).
func NewTorus3D(size int) *Torus3D {
	dims := factor3(size)
	return &Torus3D{Dims: dims}
}

// factor3 returns three factors of n with product n, as close to cubic as
// the divisor structure of n allows.
func factor3(n int) [3]int {
	best := [3]int{n, 1, 1}
	bestScore := score3(best)
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			cand := [3]int{a, b, c}
			if s := score3(cand); s < bestScore {
				best, bestScore = cand, s
			}
		}
	}
	sort.Ints(best[:])
	return best
}

// score3 is the spread of a factorisation; smaller is more cubic.
func score3(d [3]int) int {
	min, max := d[0], d[0]
	for _, v := range d[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// coords converts a rank to torus coordinates.
func (t *Torus3D) coords(rank int) (x, y, z int) {
	x = rank % t.Dims[0]
	y = (rank / t.Dims[0]) % t.Dims[1]
	z = rank / (t.Dims[0] * t.Dims[1])
	return
}

// rank converts torus coordinates back to a rank.
func (t *Torus3D) rank(x, y, z int) int {
	return x + t.Dims[0]*(y+t.Dims[1]*z)
}

// AppendNeighbors appends rank's distinct ±1 torus neighbours in each
// dimension with extent > 1, excluding rank itself, to dst and returns the
// extended slice. With a dst of
// sufficient capacity it does not allocate, which lets Program pack every
// rank's list into one flat backing array.
func (t *Torus3D) AppendNeighbors(dst []int, rank int) []int {
	x, y, z := t.coords(rank)
	var cand [6]int
	n := 0
	if d := t.Dims[0]; d > 1 {
		cand[n] = t.rank((x+1)%d, y, z)
		cand[n+1] = t.rank((x+d-1)%d, y, z)
		n += 2
	}
	if d := t.Dims[1]; d > 1 {
		cand[n] = t.rank(x, (y+1)%d, z)
		cand[n+1] = t.rank(x, (y+d-1)%d, z)
		n += 2
	}
	if d := t.Dims[2]; d > 1 {
		cand[n] = t.rank(x, y, (z+1)%d)
		cand[n+1] = t.rank(x, y, (z+d-1)%d)
		n += 2
	}
	base := len(dst)
	for i := 0; i < n; i++ {
		r := cand[i]
		if r == rank {
			continue
		}
		dup := false
		for _, v := range dst[base:] {
			if v == r {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, r)
		}
	}
	return dst
}
