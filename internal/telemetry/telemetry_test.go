package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help", nil)
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // monotone: ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "help", nil)
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
}

func TestLabelIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Labels{"b": "2", "a": "1"})
	b := r.Counter("x_total", "", Labels{"a": "1", "b": "2"})
	if a != b {
		t.Fatal("equal label sets in different key order resolved to distinct series")
	}
	c := r.Counter("x_total", "", Labels{"a": "1"})
	if c == a {
		t.Fatal("different label sets shared a series")
	}
	// Mutating the caller's map must not corrupt the registered identity.
	l := Labels{"k": "v"}
	s1 := r.Counter("y_total", "", l)
	l["k"] = "other"
	s2 := r.Counter("y_total", "", Labels{"k": "v"})
	if s1 != s2 {
		t.Fatal("registered label identity followed caller-side mutation")
	}
}

// TestWarmLookupAllocFree pins the lookup of an existing series — what a
// series looked up per event does (a tenant's energy counter, a router's
// request counter) — at zero allocations, and checks that Reset still
// drops what the fast path returns.
func TestWarmLookupAllocFree(t *testing.T) {
	r := NewRegistry()
	lookups := map[string]func(){
		"span phase histogram": func() {
			r.Histogram(PhaseDurationMetric, "h", DefTimeBuckets, Labels{"phase": "warm"}).Observe(1e-3)
		},
		"two-label counter": func() { r.Counter("c_total", "h", Labels{"b": "2", "a": "1"}).Inc() },
		"unlabeled gauge":   func() { r.Gauge("g", "h", nil).Set(1) },
	}
	for name, lookup := range lookups {
		lookup() // register
		if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
			t.Errorf("%s: warm lookup costs %v allocs, want 0", name, allocs)
		}
	}
	r.Histogram(PhaseDurationMetric, "", DefTimeBuckets, Labels{"phase": "warm"}).Observe(1)
	r.Reset()
	if n := r.Histogram(PhaseDurationMetric, "", DefTimeBuckets, Labels{"phase": "warm"}).Snapshot().Count; n != 0 {
		t.Fatalf("series after Reset holds %d samples, want a fresh one", n)
	}
	if f := r.Gather(); len(f) != 1 || f[0].Help != "" {
		t.Fatalf("Reset kept family metadata: %+v", f)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "", nil)
}

// TestConcurrentRegistryMutation hammers family creation, series creation
// and metric recording from many goroutines; run under -race (CI does)
// this is the lock-safety proof for the PR-1 parallel engine.
func TestConcurrentRegistryMutation(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for gi := 0; gi < goroutines; gi++ {
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total", "h", nil).Inc()
				r.Counter("labeled_total", "h", Labels{"g": fmt.Sprint(gi % 4)}).Add(2)
				r.Gauge("gauge", "h", nil).Set(float64(i))
				h := r.Histogram("hist_seconds", "h", nil, Labels{"g": fmt.Sprint(gi % 2)})
				h.Observe(float64(i) * 1e-3)
				h.ObserveEach(2, func(j int) float64 { return float64(i+j) * 1e-3 })
				if i%50 == 0 {
					_ = r.Gather() // concurrent export while mutating
				}
			}
		}(gi)
	}
	wg.Wait()
	if got := r.Counter("shared_total", "", nil).Value(); got != goroutines*iters {
		t.Fatalf("shared counter = %v, want %d", got, goroutines*iters)
	}
	var labeled float64
	for _, g := range []string{"0", "1", "2", "3"} {
		labeled += r.Counter("labeled_total", "", Labels{"g": g}).Value()
	}
	if labeled != goroutines*iters*2 {
		t.Fatalf("labeled counters sum = %v, want %d", labeled, goroutines*iters*2)
	}
	var count uint64
	for _, g := range []string{"0", "1"} {
		count += r.Histogram("hist_seconds", "", nil, Labels{"g": g}).Snapshot().Count
	}
	if count != goroutines*iters*3 {
		t.Fatalf("histogram count = %d, want %d", count, goroutines*iters*3)
	}
}

func TestGatherSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z_metric", "", nil).Set(1)
	r.Counter("a_metric_total", "", nil).Inc()
	r.Histogram("m_hist", "", []float64{1}, nil).Observe(0.5)
	fams := r.Gather()
	if len(fams) != 3 {
		t.Fatalf("gathered %d families, want 3", len(fams))
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("families not sorted: %q >= %q", fams[i-1].Name, fams[i].Name)
		}
	}
	r.Reset()
	if len(r.Gather()) != 0 {
		t.Fatal("Reset left families behind")
	}
}
