package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// RequestID; Parent is the ID of the span that made the call (0 for roots).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"`
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory for the length of a run; they are written
// out once, at exit. A nil *recorder records nothing, so untraced code paths
// call it unconditionally.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(name string, parent int, reqID string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, RequestID: reqID, StartNS: now})
	return len(r.spans)
}

// reserve grows the span buffer so the next n spans record without
// allocating (probes that count allocations reserve first).
func (r *recorder) reserve(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = slices.Grow(r.spans, n)
	r.mu.Unlock()
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// add records an already-timed span (the generator times its requests
// itself, so the hot loop does not take the recorder's lock twice).
func (r *recorder) add(name string, reqID string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, RequestID: reqID,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's duration minus the part of its interval
// covered by its children, indexed like spans. Children may overlap each
// other (parallel cells under one map call); covered time is their union,
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			ks, ke := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if ke <= ks {
				continue
			}
			if open && ks <= curEnd {
				curEnd = max(curEnd, ke)
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			curStart, curEnd, open = ks, ke, true
		}
		if open {
			covered += curEnd - curStart
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfP50 returns the median self time in milliseconds of the spans named
// name whose request ID starts with prefix, and how many there were.
func selfP50(spans []span, self []int64, name, prefix string) (float64, int) {
	var xs []float64
	for i, s := range spans {
		if s.Name == name && strings.HasPrefix(s.RequestID, prefix) {
			xs = append(xs, float64(self[i])/1e6)
		}
	}
	return median(xs), len(xs)
}

// layerStat summarises the spans of one name.
type layerStat struct {
	Name          string
	Count         int
	P50, SelfP50  float64 // milliseconds
	SelfTotal     float64 // milliseconds
	selfMS, durMS []float64
}

// layerStats groups spans by name, in first-seen order.
func layerStats(spans []span) []*layerStat {
	self := selfTimes(spans)
	byName := make(map[string]*layerStat)
	var order []*layerStat
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, st)
		}
		st.durMS = append(st.durMS, float64(s.dur())/1e6)
		st.selfMS = append(st.selfMS, float64(self[i])/1e6)
	}
	for _, st := range order {
		st.Count = len(st.durMS)
		st.P50 = median(st.durMS)
		st.SelfP50 = median(st.selfMS)
		for _, v := range st.selfMS {
			st.SelfTotal += v
		}
	}
	return order
}

// writeLayerTable prints the per-layer self-time table.
func writeLayerTable(w io.Writer, stats []*layerStat) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "layer", "spans", "p50_ms", "self_p50_ms", "self_sum_ms")
	for _, st := range stats {
		fmt.Fprintf(w, "%-24s %8d %12.4f %12.4f %12.1f\n", st.Name, st.Count, st.P50, st.SelfP50, st.SelfTotal)
	}
}

// writeTraceFile writes the spans as JSON.
func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// spanP50 returns the median duration in milliseconds of the spans named
// name whose request ID starts with prefix.
func spanP50(spans []span, name, prefix string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && strings.HasPrefix(s.RequestID, prefix) {
			xs = append(xs, float64(s.dur())/1e6)
		}
	}
	return median(xs)
}

// efficiency is Σ cell busy / (map wall × GOMAXPROCS) for each parallel.map
// span with the prefix, the median over them.
func efficiency(spans []span, prefix string) (float64, int) {
	busy := make(map[int]int64)
	for _, s := range spans {
		if s.Name == "experiments.cell" {
			busy[s.Parent] += s.dur()
		}
	}
	var eff []float64
	for _, s := range spans {
		if s.Name == "parallel.map" && strings.HasPrefix(s.RequestID, prefix) && s.dur() > 0 {
			eff = append(eff, float64(busy[s.ID])/float64(s.dur())/float64(runtime.GOMAXPROCS(0)))
		}
	}
	return median(eff), len(eff)
}

// part is one blocking-path layer's p50, in milliseconds.
type part struct {
	name string
	ms   float64
}

// layerMetrics maps span self times to per-layer metrics.
var layerMetrics = []struct {
	metric, span, prefix, unit string
}{
	{"service.handler_p50_us", "service.handler", "h-", "us"},
	{"transport.self_p50_us", "transport.roundtrip", "t-", "us"},
	{"shard.hop_p50_us", "shard.router", "r-", "us"},
	{"core.solve_p50_us", "core.solve", "c-", "us"},
	{"core.hetero_p50_us", "core.hetero", "c-", "us"},
	{"core.pool_p50_us", "core.pool", "c-", "us"},
	{"core.build_pmt_p50_ms", "core.build_pmt", "c-", "ms"},
	{"core.recal_p50_ms", "core.recal", "c-", "ms"},
	{"measure.execute_p50_ms", "measure.execute", "c-", "ms"},
}

// finishTrace turns a traced run's spans into the per-layer metrics, the
// gap — the traced end-to-end p50 minus the p50s of the layers on the
// blocking path, which names the next layer to instrument — and the
// per-layer table, and writes the spans to the trace file.
func finishTrace(cfg runConfig, res *result, spans []span, cellPrefix string, e2e float64, blocking []part) error {
	self := selfTimes(spans)
	for _, m := range layerMetrics {
		v, n := selfP50(spans, self, m.span, m.prefix)
		if m.unit == "us" {
			v *= 1e3
		}
		res.set(m.metric, v, m.unit, n)
	}
	cell, n := selfP50(spans, self, "experiments.cell", cellPrefix)
	res.set("experiments.cell_p50_ms", cell, "ms", n)
	eff, maps := efficiency(spans, cellPrefix)
	res.set("parallel.efficiency", eff, "ratio", maps)

	gap := e2e
	line := fmt.Sprintf("p50_ms %.4f =", e2e)
	for _, p := range blocking {
		gap -= p.ms
		line += fmt.Sprintf(" %s %.4f +", p.name, p.ms)
	}
	res.set("gap.p50_ms", gap, "ms", len(blocking))
	res.notes = append(res.notes, line+fmt.Sprintf(" gap %.4f", gap))
	res.layers = layerStats(spans)
	return writeTraceFile(cfg.tracePath, spans)
}
