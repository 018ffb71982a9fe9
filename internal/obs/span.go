package obs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"varpower/internal/telemetry"
)

// Attr is one span attribute. Attributes are an ordered list, not a map,
// so span export is deterministic.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one timed stage of the pipeline or of a request; End records its
// duration into the phase-duration histogram. A span opened under a traced
// parent is also a node of that trace's tree and keeps its attributes and
// error; outside a trace the setters are no-ops and nothing is allocated.
// Span is a value: call its methods on the variable holding it. The zero
// Span is an untraced parent; all methods are safe on a nil *Span.
type Span struct {
	name  string
	start time.Time
	n     *node // the span's record in its trace; nil outside a trace
	done  bool
}

// node is a traced span's record in its trace's tree.
type node struct {
	rt     *RequestTrace
	id     SpanID
	parent SpanID // zero for an entry's root without a remote parent
	name   string
	start  time.Time
	dur    time.Duration
	done   bool
	errMsg string
	attrs  []Attr
}

// ctxKey keys the active parent span's node in a context.
type ctxKey struct{}

// StartSpan opens a span under the context's active span and returns a
// context in which it is the parent; outside a trace, ctx comes back as is.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	parent := Span{}
	parent.n, _ = ctx.Value(ctxKey{}).(*node)
	sp := parent.Start(name)
	return ContextWith(ctx, sp), sp
}

// ContextWith returns a context in which sp is the parent of the spans
// StartSpan opens; for an untraced sp it returns ctx unchanged.
func ContextWith(ctx context.Context, sp Span) context.Context {
	if sp.n == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp.n)
}

// FromContext returns the context's active trace entry (nil when tracing is
// off) — call sites use it for log correlation fields and exemplars.
func FromContext(ctx context.Context) *RequestTrace {
	p, _ := ctx.Value(ctxKey{}).(*node)
	if p == nil {
		return nil
	}
	return p.rt
}

// Start opens a child span: traced when s is, timed either way.
func (s *Span) Start(name string) Span {
	if s == nil || s.n == nil {
		return Span{name: name, start: time.Now()}
	}
	return s.n.rt.open(name, s.n.id)
}

// ID returns the span's identifier (zero outside a trace).
func (s *Span) ID() SpanID {
	if s == nil || s.n == nil {
		return SpanID{}
	}
	return s.n.id
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, val string) {
	if s == nil || s.n == nil {
		return
	}
	s.n.rt.mu.Lock()
	s.n.attrs = append(s.n.attrs, Attr{Key: key, Val: val})
	s.n.rt.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, val int) {
	if s == nil || s.n == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(val))
}

// SetFloat attaches a floating-point attribute.
func (s *Span) SetFloat(key string, val float64) {
	if s == nil || s.n == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(val, 'g', -1, 64))
}

// Fail marks the span as errored with the given error's message.
func (s *Span) Fail(err error) {
	if s == nil || s.n == nil || err == nil {
		return
	}
	s.n.rt.mu.Lock()
	s.n.errMsg = err.Error()
	s.n.rt.mu.Unlock()
}

// End records the span's duration once per variable, and once per traced
// span however many copies end. A trace entry's root is the request itself
// (the HTTP metrics time it), so it records no phase.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	if s.n == nil {
		observePhase(s.name, time.Since(s.start))
		return
	}
	rt := s.n.rt
	dur := rt.o.now().Sub(s.start)
	rt.mu.Lock()
	first := !s.n.done
	if first {
		s.n.done, s.n.dur = true, dur
	}
	rt.mu.Unlock()
	if first && s.n != rt.root.n {
		observePhase(s.name, dur)
	}
}

// phaseHists holds each phase's histogram in the default registry, keyed by
// span name. A name is resolved through the registry once; after that a
// span's End reads the handle without a lock and builds no label key.
var phaseHists sync.Map // string → *telemetry.Histogram

// observePhase records one phase duration in the default registry.
func observePhase(name string, d time.Duration) {
	h, ok := phaseHists.Load(name)
	if !ok {
		h, _ = phaseHists.LoadOrStore(name, telemetry.Default().Histogram(telemetry.PhaseDurationMetric,
			"Wall-clock duration of pipeline phases.", telemetry.DefTimeBuckets, telemetry.Labels{"phase": name}))
	}
	h.(*telemetry.Histogram).Observe(d.Seconds())
}

// WriteTree renders the entry's spans as an indented tree, children under
// their parent in start order, each with its duration ("…" while it runs),
// attributes and error.
func (rt *RequestTrace) WriteTree(w io.Writer) error {
	var b strings.Builder
	rt.mu.Lock()
	children := make(map[SpanID][]*node)
	for _, n := range rt.spans[1:] {
		children[n.parent] = append(children[n.parent], n)
	}
	var render func(n *node, depth int)
	render = func(n *node, depth int) {
		dur := "…"
		if n.done {
			dur = n.dur.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%s%s  %s", strings.Repeat("  ", depth), n.name, dur)
		var kv []string
		for _, a := range n.attrs {
			kv = append(kv, a.Key+"="+a.Val)
		}
		if n.errMsg != "" {
			kv = append(kv, "err="+strconv.Quote(n.errMsg))
		}
		if len(kv) > 0 {
			b.WriteString("  [" + strings.Join(kv, " ") + "]")
		}
		b.WriteByte('\n')
		for _, c := range children[n.id] {
			render(c, depth+1)
		}
	}
	render(rt.spans[0], 0)
	rt.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}
