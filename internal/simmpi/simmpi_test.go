package simmpi

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"varpower/internal/units"
	"varpower/internal/xrand"
)

// sliceProgram is a Program backed by explicit per-rank op slices: round r
// plays its own table, ops[rank][r] over the ranks.
type sliceProgram struct{ ops [][]Op }

func (p sliceProgram) Tables() [][]Op {
	tables := make([][]Op, p.Rounds())
	for r := range tables {
		tables[r] = make([]Op, len(p.ops))
		for rank := range p.ops {
			tables[r][rank] = p.ops[rank][r]
		}
	}
	return tables
}
func (p sliceProgram) Rounds() int     { return len(p.ops[0]) }
func (p sliceProgram) Round(r int) int { return r }

func unitModel() Model {
	return Model(func(rank int, cycles, bytes float64) units.Seconds {
		return units.Seconds(cycles) // 1 cycle == 1 second for test clarity
	})
}

// skewedModel runs each rank at its own speed, so ranks wait on each
// other and per-rank sums depend on the order they are added in.
func skewedModel() Model {
	return Model(func(rank int, cycles, _ float64) units.Seconds {
		return units.Seconds(cycles * (1 + 0.37*float64(rank)))
	})
}

func zeroNet() Network { return Network{} }

func TestComputeOnly(t *testing.T) {
	p := sliceProgram{ops: [][]Op{
		{Compute{Cycles: 2}, Compute{Cycles: 3}},
		{Compute{Cycles: 1}, Compute{Cycles: 1}},
	}}
	res, err := RunFaulty(p, 2, unitModel(), zeroNet(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].End != 5 || res.Ranks[1].End != 2 {
		t.Fatalf("end times %v, %v", res.Ranks[0].End, res.Ranks[1].End)
	}
	if res.Elapsed != 5 {
		t.Fatalf("elapsed %v, want 5 (slowest rank)", res.Elapsed)
	}
	if res.Ranks[0].Busy != 5 || res.Ranks[0].Wait != 0 {
		t.Fatalf("rank 0 accounting: %+v", res.Ranks[0])
	}
}

func TestBarrierEqualizes(t *testing.T) {
	p := sliceProgram{ops: [][]Op{
		{Compute{Cycles: 10}, Barrier{}},
		{Compute{Cycles: 2}, Barrier{}},
	}}
	res, err := RunFaulty(p, 2, unitModel(), zeroNet(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].End != res.Ranks[1].End {
		t.Fatalf("barrier exit times differ: %v vs %v", res.Ranks[0].End, res.Ranks[1].End)
	}
	if res.Ranks[1].Wait != 8 {
		t.Fatalf("fast rank wait %v, want 8", res.Ranks[1].Wait)
	}
	if res.Ranks[0].Wait != 0 {
		t.Fatalf("slow rank wait %v, want 0", res.Ranks[0].Wait)
	}
}

func TestSendrecvPairwise(t *testing.T) {
	// Two ranks exchanging: the fast one waits for the slow one.
	net := Network{Latency: 1, Bandwidth: 1} // cost = 1 + bytes
	p := sliceProgram{ops: [][]Op{
		{Compute{Cycles: 7}, Sendrecv{Peers: []int{1}, Bytes: 2}},
		{Compute{Cycles: 3}, Sendrecv{Peers: []int{0}, Bytes: 2}},
	}}
	res, err := RunFaulty(p, 2, unitModel(), net, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both complete at max(7,3) + (1+2) = 10.
	for r := 0; r < 2; r++ {
		if res.Ranks[r].End != 10 {
			t.Fatalf("rank %d end %v, want 10", r, res.Ranks[r].End)
		}
	}
	if res.Ranks[1].Wait != 4 {
		t.Fatalf("fast rank wait %v, want 4", res.Ranks[1].Wait)
	}
	if res.Ranks[1].Sendrecv != 7 { // 4 wait + 3 transfer
		t.Fatalf("fast rank sendrecv time %v, want 7", res.Ranks[1].Sendrecv)
	}
	if res.Ranks[0].Sendrecv != 3 { // transfer only
		t.Fatalf("slow rank sendrecv time %v, want 3", res.Ranks[0].Sendrecv)
	}
}

func TestHaloChainPropagation(t *testing.T) {
	// A ring of 4 where one rank is slow: with repeated exchanges the
	// slowness propagates to all ranks within two iterations (distance ≤ 2
	// on the ring), so everyone ends at the slow rank's pace.
	mkRound := func(slow float64) [][]Op {
		ops := make([][]Op, 4)
		for r := 0; r < 4; r++ {
			c := 1.0
			if r == 0 {
				c = slow
			}
			for it := 0; it < 3; it++ {
				ops[r] = append(ops[r],
					Compute{Cycles: c},
					Sendrecv{Peers: []int{(r + 1) % 4, (r + 3) % 4}})
			}
		}
		return ops
	}
	res, err := RunFaulty(sliceProgram{ops: mkRound(5)}, 4, unitModel(), zeroNet(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2 (opposite the slow rank) must have accumulated wait time.
	if res.Ranks[2].Wait == 0 {
		t.Fatal("slowness did not propagate across the ring")
	}
	if res.Ranks[0].Wait != 0 {
		t.Fatalf("slowest rank waited %v, want 0", res.Ranks[0].Wait)
	}
	if res.Elapsed != res.Ranks[0].End {
		t.Fatal("elapsed must equal the slow rank's end time")
	}
}

func TestAllreduceCost(t *testing.T) {
	net := Network{Latency: 1, Bandwidth: 1e12}
	p := sliceProgram{ops: [][]Op{
		{Allreduce{Bytes: 8}},
		{Allreduce{Bytes: 8}},
		{Allreduce{Bytes: 8}},
		{Allreduce{Bytes: 8}},
	}}
	res, err := RunFaulty(p, 4, unitModel(), net, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// log2(4) = 2 tree stages of ≈1 s latency each.
	if math.Abs(float64(res.Elapsed)-2) > 0.01 {
		t.Fatalf("allreduce cost %v, want ≈ 2", res.Elapsed)
	}
}

func TestSPMDViolation(t *testing.T) {
	p := sliceProgram{ops: [][]Op{
		{Compute{Cycles: 1}},
		{Barrier{}},
	}}
	_, err := RunFaulty(p, 2, unitModel(), zeroNet(), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "SPMD violation") {
		t.Fatalf("want SPMD violation, got %v", err)
	}
}

func TestBadPeer(t *testing.T) {
	p := sliceProgram{ops: [][]Op{
		{Sendrecv{Peers: []int{5}}},
		{Sendrecv{Peers: []int{0}}},
	}}
	if _, err := RunFaulty(p, 2, unitModel(), zeroNet(), nil, nil); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

func TestNegativeComputeTime(t *testing.T) {
	bad := Model(func(rank int, cycles, bytes float64) units.Seconds { return -1 })
	p := sliceProgram{ops: [][]Op{{Compute{Cycles: 1}}}}
	if _, err := RunFaulty(p, 1, bad, zeroNet(), nil, nil); err == nil {
		t.Fatal("negative compute time accepted")
	}
}

// TestZeroSize: a run needs at least one rank, and no more than an int32
// peer row can name; either bound fails before anything is allocated.
func TestZeroSize(t *testing.T) {
	p := sliceProgram{ops: [][]Op{{Compute{Cycles: 1}}}}
	if _, err := RunFaulty(p, 0, unitModel(), zeroNet(), nil, nil); err == nil {
		t.Fatal("zero-rank run accepted")
	}
	big := math.MaxInt32
	big++
	if _, err := RunFaulty(p, big, unitModel(), zeroNet(), nil, nil); err == nil {
		t.Fatalf("%d-rank run accepted", big)
	}
}

// randomProgram builds a random valid SPMD program for property testing.
func randomProgram(rng *xrand.Stream, size, rounds int) sliceProgram {
	ops := make([][]Op, size)
	for r := range ops {
		ops[r] = make([]Op, rounds)
	}
	for round := 0; round < rounds; round++ {
		switch rng.Intn(4) {
		case 0, 1:
			for r := 0; r < size; r++ {
				ops[r][round] = Compute{Cycles: rng.Uniform(0, 5)}
			}
		case 2:
			for r := 0; r < size; r++ {
				ops[r][round] = Sendrecv{Peers: []int{(r + 1) % size, (r + size - 1) % size}, Bytes: 100}
			}
		default:
			for r := 0; r < size; r++ {
				ops[r][round] = Barrier{}
			}
		}
	}
	return sliceProgram{ops: ops}
}

// xferProbe sums each rank's ProbeXfer intervals.
type xferProbe []units.Seconds

func (x xferProbe) Interval(rank, _ int, phase ProbePhase, start, end units.Seconds) {
	if phase == ProbeXfer {
		x[rank] += end - start
	}
}

func (xferProbe) Collective(int, string, int, units.Seconds, units.Seconds) {}

// TestInvariantsOnRandomPrograms: every rank's End decomposes into busy,
// wait and the wire time a probe sees as ProbeXfer intervals, in the
// unprobed run (the healthy loop) and the probed one (the general loop).
func TestInvariantsOnRandomPrograms(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		size := 2 + rng.Intn(8)
		rounds := 1 + rng.Intn(12)
		p := randomProgram(rng, size, rounds)
		net := Network{Latency: 0.01, Bandwidth: 1e6}
		xfer := make(xferProbe, size)
		probed, err := RunFaulty(p, size, unitModel(), net, xfer, nil)
		if err != nil {
			return false
		}
		res, err := RunFaulty(p, size, unitModel(), net, nil, nil)
		if err != nil {
			return false
		}
		for _, r := range []Result{res, probed} {
			for rank, st := range r.Ranks {
				if math.Abs(float64(st.End-(st.Busy+st.Wait+xfer[rank]))) > 1e-9 {
					return false
				}
				if st.Wait < 0 || st.Busy < 0 || st.Sendrecv < 0 {
					return false
				}
				if st.End > r.Elapsed {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeterministic(t *testing.T) {
	rng := xrand.New(77)
	p := randomProgram(rng, 6, 10)
	a, err := RunFaulty(p, 6, unitModel(), DefaultNetwork, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaulty(p, 6, unitModel(), DefaultNetwork, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			t.Fatalf("rank %d differs across identical runs", i)
		}
	}
}
