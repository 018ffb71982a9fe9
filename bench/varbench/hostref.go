package main

import (
	"encoding/json"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
)

// hostWork is the fixed computation eval-grid's reps are read against, run
// before every rep: the same kinds of work the grid does — float
// arithmetic, sorting, hashing into maps, allocating and walking linked
// records, JSON — on GOMAXPROCS goroutines, built from the standard library
// alone, so that no change to varpower changes it. On a shared host, a
// slow spell slows the reps and the reference alike, and the ratio of the
// two stays put. It returns a sum of its results so none of the work can be
// optimised away.
func hostWork() float64 {
	out := make([]float64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = hostWorkOne(uint64(w))
		}(w)
	}
	wg.Wait()
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	return sum
}

type hostRecord struct {
	next *hostRecord
	v    [6]float64
}

func hostWorkOne(seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 0x686f7374 /* "host" */))
	const n = 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	slices.Sort(xs)
	m := make(map[int]float64)
	for i := 0; i < 2*n/3; i++ {
		m[rng.IntN(1<<20)] += xs[i]
	}
	var head *hostRecord
	for i := 0; i < n; i++ {
		head = &hostRecord{next: head, v: [6]float64{float64(i), xs[i]}}
	}
	sum := 0.0
	for r := head; r != nil; r = r.next {
		sum += r.v[0] * r.v[1]
	}
	b, _ := json.Marshal(struct {
		Values []float64
		Keys   int
	}{xs[:4000], len(m)})
	var back struct{ Values []float64 }
	_ = json.Unmarshal(b, &back)
	return sum + back.Values[0]
}
