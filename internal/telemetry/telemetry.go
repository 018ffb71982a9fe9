// Package telemetry is the simulation pipeline's runtime observability
// substrate: a dependency-free metrics registry (counters, gauges,
// histograms with quantiles; labeled, safe under the internal/parallel
// fan-out) plus a span tracer for phase timing (span.go) and exporters in
// Prometheus text, JSON and CSV form (export.go, http.go).
//
// The paper's argument rests on measuring what a power cap does to a
// machine — per-module power, delivered frequency, per-rank wait time
// (Figures 4–6) — and the hot paths of this reproduction now publish those
// quantities as metrics instead of discarding them after the final tables:
// hw/rapl counts clamp/throttle events and the power clamped away,
// hw/cpufreq counts frequency transitions, simmpi observes per-rank
// busy/wait histograms, core publishes the α and budget-residual gauges,
// and every pipeline phase records its wall-clock duration.
//
// Collection is always on and cheap (atomic adds; metric handles are
// resolved once at package init, never per event). Collection is also
// strictly write-only with respect to simulation state: enabling or
// draining telemetry cannot change any simulated result, which is what
// keeps the repo's bit-reproducibility contract intact (the determinism
// property tests run with telemetry active).
//
// This package is distinct from internal/flight, which records
// *simulated power time series* (per-module watts over virtual seconds,
// the paper's measurement campaigns); telemetry records *real* wall-clock
// spans and event counts of the simulator itself.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Labels is a set of name→value metric labels. Label sets are serialised
// in sorted key order, so two Labels values with equal contents always
// address the same series.
type Labels map[string]string

// key returns the canonical serialised form ("a=1,b=2").
func (l Labels) key() string { return string(l.appendKey(nil)) }

// appendKey appends the canonical serialised form to b. Up to eight label
// names sort in a stack array, so with a stack-backed b the lookup of an
// existing series allocates nothing.
func (l Labels) appendKey(b []byte) []byte {
	var names [8]string
	keys := names[:0]
	for k := range l {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, l[k]...)
	}
	return b
}

// clone returns an independent copy so callers cannot mutate a registered
// series' identity after the fact.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// MetricType discriminates the metric families.
type MetricType int

// Metric families.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

// String returns the Prometheus TYPE keyword.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrary float64, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// family is one named metric and all its labeled series.
type family struct {
	name, help string
	typ        MetricType
	buckets    []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]*series
	order  []string // insertion order of series keys (stable export)
}

// series is one (name, labels) time series.
type series struct {
	labels Labels
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // insertion order of family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry the instrumented packages
// publish into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// family returns (creating if needed) the named family, enforcing type
// consistency: re-registering a name with a different type panics, because
// it is always a programming error in the instrumentation layer.
func (r *Registry) family(name, help string, typ MetricType, buckets []float64) *family {
	// Fast path: a family that exists with its type and help settled needs
	// only the read lock — the common case, e.g. every Span.End.
	r.mu.RLock()
	f, ok := r.families[name]
	warm := ok && f.typ == typ && (f.help != "" || help == "")
	r.mu.RUnlock()
	if warm {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok = r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, typ, f.typ))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

// get returns (creating if needed) the series for the label set.
func (f *family) get(labels Labels) *series {
	var buf [128]byte
	kb := labels.appendKey(buf[:0])
	f.mu.RLock()
	s, ok := f.series[string(kb)]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k := string(kb)
	if s, ok = f.series[k]; ok {
		return s
	}
	s = &series{labels: labels.clone()}
	switch f.typ {
	case TypeCounter:
		s.ctr = &Counter{}
	case TypeGauge:
		s.gauge = &Gauge{}
	case TypeHistogram:
		s.hist = newHistogram(f.buckets)
	}
	f.series[k] = s
	f.order = append(f.order, k)
	return s
}

// Counter returns the counter for (name, labels), registering the family
// on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.family(name, help, TypeCounter, nil).get(labels).ctr
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.family(name, help, TypeGauge, nil).get(labels).gauge
}

// Histogram returns the histogram for (name, labels). buckets are the
// upper bounds (ascending; +Inf is implicit); nil selects DefTimeBuckets.
// The bucket layout is fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefTimeBuckets
	}
	return r.family(name, help, TypeHistogram, buckets).get(labels).hist
}

// Reset drops every family and series. Intended for tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = make(map[string]*family)
	r.order = nil
}

// SeriesSnapshot is one exported time series.
type SeriesSnapshot struct {
	Labels Labels
	Value  float64       // counters and gauges
	Hist   *HistSnapshot // histograms
}

// FamilySnapshot is one exported metric family.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   MetricType
	Series []SeriesSnapshot
}

// Gather snapshots every family, sorted by name, each family's series in
// first-registration order (deterministic for serial registration; label
// keys disambiguate otherwise).
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		snap := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		f.mu.RLock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.RUnlock()
		for _, s := range sers {
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.typ {
			case TypeCounter:
				ss.Value = s.ctr.Value()
			case TypeGauge:
				ss.Value = s.gauge.Value()
			case TypeHistogram:
				h := s.hist.Snapshot()
				ss.Hist = &h
			}
			snap.Series = append(snap.Series, ss)
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
