package obs

import "time"

// SpanView is the JSON form of one span, with timings relative to the
// entry's start so exported traces are stable across runs.
type SpanView struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Err      string `json:"err,omitempty"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// TraceView is the JSON form of one retained trace entry — the body element
// of GET /v1/traces and GET /v1/traces/{id}.
type TraceView struct {
	TraceID   string     `json:"trace_id"`
	RequestID string     `json:"request_id,omitempty"`
	Method    string     `json:"method,omitempty"`
	Route     string     `json:"route"`
	Tenant    string     `json:"tenant,omitempty"`
	Status    int        `json:"status"`
	Start     time.Time  `json:"start"`
	DurUS     int64      `json:"dur_us"`
	Important bool       `json:"important"`
	Spans     []SpanView `json:"spans"`
}

// View exports a sealed entry. Calling it on an unsealed entry is safe but
// racy in principle; the service only exports from the ring, which holds
// sealed entries exclusively.
func (rt *RequestTrace) View() TraceView {
	if rt == nil {
		return TraceView{}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	v := TraceView{
		TraceID:   rt.trace.String(),
		RequestID: rt.requestID,
		Method:    rt.method,
		Route:     rt.route,
		Tenant:    rt.tenant,
		Status:    rt.status,
		Start:     rt.start,
		DurUS:     rt.dur.Microseconds(),
		Important: rt.important(),
		Spans:     make([]SpanView, 0, len(rt.spans)),
	}
	for _, sp := range rt.spans {
		sv := SpanView{
			SpanID:  sp.id.String(),
			Name:    sp.name,
			StartUS: sp.start.Sub(rt.start).Microseconds(),
			DurUS:   sp.dur.Microseconds(),
			Err:     sp.errMsg,
			Attrs:   sp.attrs,
		}
		// A root span's parent, when set, is outside this entry — the remote
		// traceparent span, or the admission-request span a continuation
		// hangs under. Emitting it as-is lets merged trace views join up.
		if !sp.parent.IsZero() {
			sv.ParentID = sp.parent.String()
		}
		v.Spans = append(v.Spans, sv)
	}
	return v
}
