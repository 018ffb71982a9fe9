package simmpi

import (
	"math"
	"testing"

	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// roundCounts reads varpower_mpi_rounds_total for every kind.
func roundCounts() (c [kindAllreduce + 1]float64) {
	for kind := kindCompute; kind <= kindAllreduce; kind++ {
		c[kind] = mRounds[kind].Value()
	}
	return c
}

// cutProgram plays p's schedule but names a table that does not exist at
// round cut, failing the run there.
type cutProgram struct {
	sliceProgram
	cut int
}

func (p cutProgram) Round(r int) int {
	if r == p.cut {
		return len(p.ops[0])
	}
	return p.sliceProgram.Round(r)
}

// TestRunFlushesMetricsOncePerRun pins what a run adds to the shared
// metrics when it flushes them at its end: its round count per kind, and
// one busy and one wait sample per rank whose sums are the per-rank values
// added in rank order — with a rank dying mid-run — and a run that fails at
// a round still counts the rounds it played.
func TestRunFlushesMetricsOncePerRun(t *testing.T) {
	const size, iters = 6, 5
	p := ringProgram(size, iters, 3)
	for rank := range p.ops {
		p.ops[rank] = append(p.ops[rank], Barrier{})
	}
	// Uneven per-rank speeds, so the sums depend on the order they are
	// added in.
	model := ModelFunc(func(rank int, cycles, _ float64) units.Seconds {
		return units.Seconds(cycles * (1 + 0.37*float64(rank)))
	})
	deadAt := []units.Seconds{-1, -1, 7.3, -1, -1, -1}
	rounds, busy, wait := roundCounts(), mRankBusy.Snapshot(), mRankWait.Snapshot()
	res, err := RunFaulty(p, size, model, DefaultNetwork, nil, &FaultSpec{DeadAt: deadAt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ranks[2].Dead {
		t.Fatal("rank 2 survived its death time")
	}
	want := rounds
	want[kindCompute] += iters
	want[kindSendrecv] += iters
	want[kindAllreduce] += iters
	want[kindBarrier]++
	if got := roundCounts(); got != want {
		t.Fatalf("rounds by kind %v, want %v", got, want)
	}
	for _, h := range []struct {
		name   string
		before telemetry.HistSnapshot
		after  telemetry.HistSnapshot
		value  func(RankStats) units.Seconds
	}{
		{"busy", busy, mRankBusy.Snapshot(), func(st RankStats) units.Seconds { return st.Busy }},
		{"wait", wait, mRankWait.Snapshot(), func(st RankStats) units.Seconds { return st.Wait }},
	} {
		sum := h.before.Sum
		for _, st := range res.Ranks {
			sum += float64(h.value(st))
		}
		if n := h.after.Count - h.before.Count; n != size {
			t.Fatalf("%s: %d samples, want %d", h.name, n, size)
		}
		if math.Float64bits(h.after.Sum) != math.Float64bits(sum) {
			t.Fatalf("%s: sum %v, want the rank-order sum %v", h.name, h.after.Sum, sum)
		}
	}

	rounds, busy = roundCounts(), mRankBusy.Snapshot()
	if _, err := RunFaulty(cutProgram{p, 4}, size, model, DefaultNetwork, nil, nil); err == nil {
		t.Fatal("a round naming a missing table did not fail the run")
	}
	want = rounds
	want[kindCompute] += 2
	want[kindSendrecv]++
	want[kindAllreduce]++
	if got := roundCounts(); got != want {
		t.Fatalf("failed run: rounds by kind %v, want %v (the four it played)", got, want)
	}
	if n := mRankBusy.Snapshot().Count - busy.Count; n != 0 {
		t.Fatalf("failed run observed %d busy samples, want none", n)
	}
}
