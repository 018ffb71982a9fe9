package simmpi

import (
	"reflect"
	"testing"

	"varpower/internal/units"
)

// ringProgram builds a compute/sendrecv/allreduce loop like the MHD kernel:
// enough communication structure that a dead rank would deadlock a naive
// engine.
func ringProgram(size, iters int, cycles float64) sliceProgram {
	ops := make([][]Op, size)
	for rank := range ops {
		left := (rank - 1 + size) % size
		right := (rank + 1) % size
		for i := 0; i < iters; i++ {
			ops[rank] = append(ops[rank],
				Compute{Cycles: cycles},
				Sendrecv{Peers: []int{left, right}, Bytes: 1024},
				Allreduce{Bytes: 64},
			)
		}
	}
	return sliceProgram{ops: ops}
}

// nopProbe observes nothing. A run given it still takes the general loop.
type nopProbe struct{}

func (nopProbe) Interval(int, int, ProbePhase, units.Seconds, units.Seconds) {}
func (nopProbe) Collective(int, string, int, units.Seconds, units.Seconds)   {}

// TestRunFaultyNilSpecMatchesRun: a run with no spec and no probe takes the
// healthy loop; a deathless spec, or a probe that observes nothing, sends
// the same run through the general loop, and the results are identical.
// The timeout only matters once somebody dies.
func TestRunFaultyNilSpecMatchesRun(t *testing.T) {
	p := ringProgram(6, 8, 3)
	want, err := RunFaulty(p, 6, skewedModel(), DefaultNetwork, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		probe Probe
		fs    *FaultSpec
	}{
		{"deathless FaultSpec", nil, &FaultSpec{}},
		{"no-op probe", nopProbe{}, nil},
	} {
		got, err := RunFaulty(p, 6, skewedModel(), DefaultNetwork, tc.probe, tc.fs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s diverged from the healthy loop:\n%+v\n%+v", tc.name, want, got)
		}
	}
}

func TestRunFaultyDeadRankFinishesDegraded(t *testing.T) {
	const size = 6
	p := ringProgram(size, 10, 3)
	healthy, err := RunFaulty(p, size, unitModel(), zeroNet(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	deadAt := make([]units.Seconds, size)
	for i := range deadAt {
		deadAt[i] = -1
	}
	deadAt[2] = 10 // mid-run: each iteration is >= 3 s of compute
	res, err := RunFaulty(p, size, unitModel(), zeroNet(), nil, &FaultSpec{DeadAt: deadAt})
	if err != nil {
		t.Fatal(err)
	}

	if !res.Ranks[2].Dead {
		t.Fatal("rank 2 not marked dead")
	}
	for rank, st := range res.Ranks {
		if rank != 2 && st.Dead {
			t.Fatalf("rank %d wrongly marked dead", rank)
		}
	}
	// The dead rank stopped early; its busy time is bounded by its death.
	if res.Ranks[2].End < 10 || res.Ranks[2].Busy > 11 {
		t.Fatalf("dead rank stats %+v", res.Ranks[2])
	}
	// Survivors finish — later than the healthy run (they pay detection
	// timeouts) but within rounds × timeout of it, proving no deadlock and
	// no unbounded stall.
	if res.Elapsed <= healthy.Elapsed {
		t.Fatalf("degraded run not slower: %v vs healthy %v", res.Elapsed, healthy.Elapsed)
	}
	bound := healthy.Elapsed + units.Seconds(float64(p.Rounds()))*DefaultDeadTimeout
	if res.Elapsed > bound {
		t.Fatalf("degraded run %v exceeds timeout bound %v", res.Elapsed, bound)
	}
	// Elapsed tracks the slowest survivor, not the dead rank.
	var slowest units.Seconds
	for rank, st := range res.Ranks {
		if rank != 2 && st.End > slowest {
			slowest = st.End
		}
	}
	if res.Elapsed != slowest {
		t.Fatalf("elapsed %v, slowest survivor %v", res.Elapsed, slowest)
	}
}

func TestRunFaultyDeathAtZeroAndAllDead(t *testing.T) {
	const size = 4
	p := ringProgram(size, 5, 2)
	// A rank dead from t=0 participates in nothing.
	deadAt := []units.Seconds{0, -1, -1, -1}
	res, err := RunFaulty(p, size, unitModel(), zeroNet(), nil, &FaultSpec{DeadAt: deadAt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ranks[0].Dead || res.Ranks[0].Busy != 0 {
		t.Fatalf("rank dead at 0 still computed: %+v", res.Ranks[0])
	}
	if res.Elapsed <= 0 {
		t.Fatal("survivors made no progress")
	}

	// Everyone dead: the run still terminates (elapsed = latest death
	// processing point, no survivors to wait on).
	all := []units.Seconds{0, 1, 2, 3}
	res, err = RunFaulty(p, size, unitModel(), zeroNet(), nil, &FaultSpec{DeadAt: all})
	if err != nil {
		t.Fatal(err)
	}
	for rank, st := range res.Ranks {
		if !st.Dead {
			t.Fatalf("rank %d survived a total-death plan", rank)
		}
	}
}

func TestRunFaultyRejectsBadSpec(t *testing.T) {
	p := ringProgram(4, 2, 1)
	_, err := RunFaulty(p, 4, unitModel(), zeroNet(), nil, &FaultSpec{DeadAt: []units.Seconds{1}})
	if err == nil {
		t.Fatal("mismatched DeadAt length accepted")
	}
}

func TestRunFaultySendrecvTimeoutSemantics(t *testing.T) {
	// Two live ranks exchanging with a dead third: each waits its own
	// arrival + timeout, then proceeds.
	ops := [][]Op{
		{Compute{Cycles: 1}, Sendrecv{Peers: []int{2}}},
		{Compute{Cycles: 2}, Sendrecv{Peers: []int{2}}},
		{Compute{Cycles: 5}, Sendrecv{Peers: []int{0, 1}}},
	}
	deadAt := []units.Seconds{-1, -1, 0}
	res, err := RunFaulty(sliceProgram{ops: ops}, 3, unitModel(), zeroNet(), nil,
		&FaultSpec{DeadAt: deadAt, Timeout: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 arrives at 1, times out at 3; rank 1 arrives at 2, times out 4.
	if res.Ranks[0].End != 3 {
		t.Fatalf("rank 0 end %v, want 3 (arrive 1 + timeout 2)", res.Ranks[0].End)
	}
	if res.Ranks[1].End != 4 {
		t.Fatalf("rank 1 end %v, want 4 (arrive 2 + timeout 2)", res.Ranks[1].End)
	}
	if res.Ranks[0].Wait != 2 || res.Ranks[1].Wait != 2 {
		t.Fatalf("timeout not accounted as wait: %v / %v", res.Ranks[0].Wait, res.Ranks[1].Wait)
	}
}
