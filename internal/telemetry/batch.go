package telemetry

import "math"

// Batch is an ordered record of metric writes — counter adds and histogram
// observations — that Flush publishes. A goroutine that makes many small
// runs (a calibration sweep's test runs) records their writes into a batch
// and publishes them once, instead of taking every histogram's lock and
// every counter's cache line once per write while other workers do the
// same.
//
// Flush replays each metric's writes in the order they were recorded:
// every histogram under one acquisition of its lock, every counter in one
// compare-and-swap. Each metric therefore receives exactly the write
// sequence it would have received had the writes been published one by
// one, so a serial program that batches leaves every counter value and
// every histogram's buckets, count, sum, min and max bit-identical to one
// that does not. Only the moment the writes become visible moves: nothing
// recorded is published before Flush.
//
// The zero Batch is ready to use and is not safe for concurrent use. Every
// method is also safe on a nil *Batch, which publishes each write at once:
// code that may run batched takes a *Batch and passes nil when it is not.
type Batch struct {
	metrics []batched    // the distinct metrics written, first write first
	writes  []batchWrite // every recorded value, in recording order
}

// batched is one metric of a batch and the chain of its writes.
type batched struct {
	ctr         *Counter
	hist        *Histogram
	first, last int32 // the metric's first and last write in Batch.writes (-1: none yet)
}

// batchWrite is one recorded value, linked to its metric's next write.
type batchWrite struct {
	v    float64
	next int32 // index of the metric's next write; -1 ends the chain
}

// Inc records c.Inc().
func (b *Batch) Inc(c *Counter) { b.Add(c, 1) }

// Add records c.Add(v).
func (b *Batch) Add(c *Counter, v float64) {
	if b == nil {
		c.Add(v)
		return
	}
	b.record(c, nil, v)
}

// Observe records h.Observe(v).
func (b *Batch) Observe(h *Histogram, v float64) {
	if b == nil {
		h.Observe(v)
		return
	}
	b.record(nil, h, v)
}

// ObserveEach records h.ObserveEach(n, v): v(0), …, v(n-1) in index order.
// Unlike Histogram.ObserveEach, v runs when the samples are recorded, not
// under the histogram's lock.
func (b *Batch) ObserveEach(h *Histogram, n int, v func(i int) float64) {
	if b == nil {
		h.ObserveEach(n, v)
		return
	}
	if n <= 0 {
		return
	}
	m := b.metric(nil, h)
	for i := 0; i < n; i++ {
		b.push(m, v(i))
	}
}

// record appends one write of v to the metric (c or h).
func (b *Batch) record(c *Counter, h *Histogram, v float64) {
	b.push(b.metric(c, h), v)
}

// metric returns the batch's entry for the metric (c or h), adding it
// with an empty chain on its first write. A batch writes a handful of
// distinct metrics, so the entry is found by a linear scan.
func (b *Batch) metric(c *Counter, h *Histogram) int {
	if b.writes == nil {
		// A test pair makes about twenty writes to ten metrics: room for
		// it from the start, so a batch grows only past a few pairs.
		b.writes = make([]batchWrite, 0, 64)
		b.metrics = make([]batched, 0, 16)
	}
	for k := range b.metrics {
		if m := &b.metrics[k]; m.ctr == c && m.hist == h {
			return k
		}
	}
	b.metrics = append(b.metrics, batched{ctr: c, hist: h, first: -1, last: -1})
	return len(b.metrics) - 1
}

// push appends v to the chain of metric k.
func (b *Batch) push(k int, v float64) {
	i := int32(len(b.writes))
	b.writes = append(b.writes, batchWrite{v: v, next: -1})
	if m := &b.metrics[k]; m.last < 0 {
		m.first, m.last = i, i
	} else {
		b.writes[m.last].next = i
		m.last = i
	}
}

// Flush publishes every recorded write, each metric's in recorded order,
// and empties the batch, keeping its storage for the next writes.
func (b *Batch) Flush() {
	if b == nil {
		return
	}
	for _, m := range b.metrics {
		if m.hist != nil {
			m.hist.mu.Lock()
			for i := m.first; i >= 0; i = b.writes[i].next {
				m.hist.add(b.writes[i].v)
			}
			m.hist.mu.Unlock()
			continue
		}
		// The sum is replayed from the counter's current value, skipping
		// what Add ignores, and swapped in only if no other write came in
		// between: the counter sees the same additions, in the same
		// order, as from Add calls one after another.
		for {
			old := m.ctr.bits.Load()
			sum := math.Float64frombits(old)
			for i := m.first; i >= 0; i = b.writes[i].next {
				if v := b.writes[i].v; v >= 0 { // false for NaN too
					sum += v
				}
			}
			if m.ctr.bits.CompareAndSwap(old, math.Float64bits(sum)) {
				break
			}
		}
	}
	b.metrics = b.metrics[:0]
	b.writes = b.writes[:0]
}
