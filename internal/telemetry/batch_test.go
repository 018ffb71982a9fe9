package telemetry

import (
	"math"
	"reflect"
	"testing"

	"varpower/internal/xrand"
)

// batchMetrics is a pair of counters and a pair of histograms, one set
// written directly and one through a batch.
type batchMetrics struct {
	ctr  [2]*Counter
	hist [2]*Histogram
}

func newBatchMetrics() batchMetrics {
	return batchMetrics{
		ctr:  [2]*Counter{{}, {}},
		hist: [2]*Histogram{newHistogram([]float64{1e-3, 1, 1e3}), newHistogram(DefTimeBuckets)},
	}
}

func (m batchMetrics) state() []any {
	return []any{m.ctr[0].Value(), m.ctr[1].Value(), m.hist[0].Snapshot(), m.hist[1].Snapshot()}
}

// TestBatchFlushReplaysWrites: a batch's Flush leaves every metric exactly
// as the same writes published one by one — counter values, and every
// histogram's buckets, count, sum, min, max and rejections, bit for bit —
// with values whose float sums depend on their order, rejected values
// among them, and the batch reused across flushes. Nothing is published
// before Flush.
func TestBatchFlushReplaysWrites(t *testing.T) {
	direct, batched := newBatchMetrics(), newBatchMetrics()
	rng := xrand.New(7)
	values := []float64{0.1, 1e-17, 3e15, 1, 2.5e-7, 7, 1e300, -1, math.NaN(), math.Inf(1)}
	var b Batch
	for round := 0; round < 3; round++ {
		empty := batched.state()
		for i := 0; i < 200; i++ {
			v := values[rng.Intn(len(values))]
			k := rng.Intn(2)
			switch rng.Intn(4) {
			case 0:
				direct.ctr[k].Inc()
				b.Inc(batched.ctr[k])
			case 1:
				direct.ctr[k].Add(v)
				b.Add(batched.ctr[k], v)
			case 2:
				direct.hist[k].Observe(v)
				b.Observe(batched.hist[k], v)
			default:
				vs := []float64{v, v / 3, v * 7}
				direct.hist[k].ObserveEach(len(vs), func(i int) float64 { return vs[i] })
				b.ObserveEach(batched.hist[k], len(vs), func(i int) float64 { return vs[i] })
			}
		}
		if got := batched.state(); !reflect.DeepEqual(got, empty) {
			t.Fatalf("round %d: the batch published before Flush", round)
		}
		b.Flush()
		if got, want := batched.state(), direct.state(); !sameState(got, want) {
			t.Fatalf("round %d: flushed batch left\n%+v\nwant\n%+v", round, got, want)
		}
	}
}

// sameState compares metric states bit for bit (NaN-safe, unlike ==).
func sameState(a, b []any) bool {
	for i := range a {
		switch x := a[i].(type) {
		case float64:
			if math.Float64bits(x) != math.Float64bits(b[i].(float64)) {
				return false
			}
		case HistSnapshot:
			y := b[i].(HistSnapshot)
			if math.Float64bits(x.Sum) != math.Float64bits(y.Sum) || x.Min != y.Min || x.Max != y.Max ||
				x.Count != y.Count || x.Dropped != y.Dropped || !reflect.DeepEqual(x.Counts, y.Counts) {
				return false
			}
		}
	}
	return true
}

// TestNilBatchPublishesAtOnce: every write through a nil *Batch is
// published when it is made, and Flush on nil is a no-op.
func TestNilBatchPublishesAtOnce(t *testing.T) {
	m := newBatchMetrics()
	var b *Batch
	b.Inc(m.ctr[0])
	b.Add(m.ctr[1], 2.5)
	b.Observe(m.hist[0], 0.5)
	b.ObserveEach(m.hist[1], 2, func(i int) float64 { return float64(i) })
	b.Flush()
	if m.ctr[0].Value() != 1 || m.ctr[1].Value() != 2.5 {
		t.Fatalf("counters %v, %v; want 1, 2.5", m.ctr[0].Value(), m.ctr[1].Value())
	}
	if c0, c1 := m.hist[0].Snapshot().Count, m.hist[1].Snapshot().Count; c0 != 1 || c1 != 2 {
		t.Fatalf("histogram counts %d, %d; want 1, 2", c0, c1)
	}
}

// TestBatchSteadyStateAllocs: a batch reused across flushes records and
// publishes without allocating once its storage has grown.
func TestBatchSteadyStateAllocs(t *testing.T) {
	m := newBatchMetrics()
	var b Batch
	fill := func() {
		for i := 0; i < 64; i++ {
			b.Inc(m.ctr[i%2])
			b.Observe(m.hist[i%2], float64(i))
		}
		b.Flush()
	}
	fill()
	if n := testing.AllocsPerRun(10, fill); n != 0 {
		t.Fatalf("a warm batch allocated %v times per fill", n)
	}
}
