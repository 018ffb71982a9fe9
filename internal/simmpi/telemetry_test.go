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
// added in rank order. A deathless run and a run that fails at round 4 go
// through both loops — the healthy one (no spec, no probe) and the general
// one (a no-op probe) — and must flush the same; a run that fails still
// counts the rounds it played. A run with a rank dying mid-run flushes a
// sample for the dead rank too. Each case runs twice: publishing at once,
// and into a batch that publishes the same when it is flushed.
func TestRunFlushesMetricsOncePerRun(t *testing.T) {
	const size, iters = 6, 5
	p := ringProgram(size, iters, 3)
	for rank := range p.ops {
		p.ops[rank] = append(p.ops[rank], Barrier{})
	}
	model := skewedModel()
	var whole, cut [kindAllreduce + 1]float64
	whole[kindCompute], whole[kindSendrecv], whole[kindAllreduce], whole[kindBarrier] = iters, iters, iters, 1
	cut[kindCompute], cut[kindSendrecv], cut[kindAllreduce] = 2, 1, 1

	for _, batched := range []bool{false, true} {
		var healthy Result
		for _, loop := range []struct {
			name  string
			probe Probe
		}{{"healthy loop", nil}, {"general loop", nopProbe{}}} {
			res := checkFlush(t, loop.name, p, size, model, loop.probe, nil, whole, batched)
			if loop.probe == nil {
				healthy = res
			} else if !sameBits(res, healthy) {
				t.Fatalf("%s: result\n%+v\nwant the healthy loop's\n%+v", loop.name, res, healthy)
			}
			checkFlush(t, loop.name+", failing at round 4", cutProgram{p, 4}, size, model, loop.probe, nil, cut, batched)
		}

		deadAt := []units.Seconds{-1, -1, 7.3, -1, -1, -1}
		res := checkFlush(t, "dying rank", p, size, model, nil, &FaultSpec{DeadAt: deadAt}, whole, batched)
		if !res.Ranks[2].Dead {
			t.Fatal("rank 2 survived its death time")
		}
	}
}

// checkFlush runs p and checks what the run added to the shared metrics:
// rounds per kind as given, and one busy and one wait sample per rank
// whose sums are the per-rank values added in rank order — or, when the
// run fails (only cutProgram runs are meant to), no sample. The run
// observes into empty busy and wait histograms, so each sum starts from
// zero whatever ran before, and an order that changes its bits in one
// test order changes them in all. With batched, the run publishes into a
// batch, which must hold every write back until it is flushed.
func checkFlush(t *testing.T, name string, p Program, size int, m Model, probe Probe, fs *FaultSpec, rounds [kindAllreduce + 1]float64, batched bool) Result {
	t.Helper()
	defer func(busy, wait *telemetry.Histogram) { mRankBusy, mRankWait = busy, wait }(mRankBusy, mRankWait)
	reg := telemetry.NewRegistry()
	mRankBusy = reg.Histogram("busy", "", telemetry.SecondBuckets, nil)
	mRankWait = reg.Histogram("wait", "", telemetry.SecondBuckets, nil)
	want, busy, wait := roundCounts(), mRankBusy.Snapshot(), mRankWait.Snapshot()
	var b *telemetry.Batch
	if batched {
		name += ", batched"
		b = new(telemetry.Batch)
	}
	res, err := RunFaulty(p, size, m, DefaultNetwork, probe, fs, b)
	if batched {
		if roundCounts() != want || mRankBusy.Snapshot().Count != 0 || mRankWait.Snapshot().Count != 0 {
			t.Fatalf("%s: the run published before its batch was flushed", name)
		}
		b.Flush()
	}
	_, fails := p.(cutProgram)
	if (err != nil) != fails {
		t.Fatalf("%s: error %v", name, err)
	}
	for kind := range want {
		want[kind] += rounds[kind]
	}
	if got := roundCounts(); got != want {
		t.Fatalf("%s: rounds by kind %v, want %v", name, got, want)
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
		n := h.after.Count - h.before.Count
		if fails {
			if n != 0 {
				t.Fatalf("%s: %d %s samples, want none", name, n, h.name)
			}
			continue
		}
		if n != uint64(size) {
			t.Fatalf("%s: %d %s samples, want %d", name, n, h.name, size)
		}
		sum := h.before.Sum
		for _, st := range res.Ranks {
			sum += float64(h.value(st))
		}
		if math.Float64bits(h.after.Sum) != math.Float64bits(sum) {
			t.Fatalf("%s: %s sum %v, want the rank-order sum %v", name, h.name, h.after.Sum, sum)
		}
	}
	return res
}
