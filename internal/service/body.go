package service

import (
	"encoding/json"
	"strconv"
)

// renderSolve renders r exactly as json.NewEncoder(w).Encode(r) writes it —
// field order, omitempty, null for nil Allocations, HTML-safe strings, the
// float encoder's formats and its first error, the trailing newline — in one
// pass into one buffer sized from the entry counts. The solve cache stores
// these bytes and snapshots persist them, so a body rendered here must equal
// one encoding/json rendered in an older build: a hit and a miss for the same
// key are byte-identical on the wire.
func renderSolve(r *SolveResponse) ([]byte, error) {
	w := bodyWriter{b: make([]byte, 0, solveBodyCap(r))}
	w.str(`{"system":`, r.System)
	w.str(`,"workload":`, r.Workload)
	w.str(`,"scheme":`, r.Scheme)
	w.float(`,"budget_watts":`, r.BudgetWatts)
	w.b = strconv.AppendInt(append(w.b, `,"modules":`...), int64(r.Modules), 10)
	w.b = strconv.AppendUint(append(w.b, `,"seed":`...), r.Seed, 10)
	if r.Faults != "" {
		w.str(`,"faults":`, r.Faults)
	}
	w.float(`,"alpha":`, r.Alpha)
	w.float(`,"freq_hz":`, r.FreqHz)
	w.b = strconv.AppendBool(append(w.b, `,"feasible":`...), r.Feasible)
	w.b = strconv.AppendBool(append(w.b, `,"clamped":`...), r.Clamped)
	w.b = strconv.AppendBool(append(w.b, `,"constrained":`...), r.Constrained)
	w.float(`,"predicted_power_w":`, r.PredictedPowerW)
	w.float(`,"predicted_time_s":`, r.PredictedTimeS)
	if len(r.Quarantined) > 0 {
		w.ints(`,"quarantined":`, r.Quarantined)
	}
	w.b = append(w.b, `,"allocations":`...)
	if r.Allocations == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i, a := range r.Allocations {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = strconv.AppendInt(append(w.b, `{"module":`...), int64(a.Module), 10)
			w.float(`,"pmodule_w":`, a.PModule)
			w.float(`,"pcpu_w":`, a.PCPU)
			w.float(`,"pdram_w":`, a.PDram)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if r.Splitter != "" {
		w.str(`,"splitter":`, r.Splitter)
	}
	w.floatOmitEmpty(`,"cpu_budget_w":`, r.CPUBudgetW)
	w.floatOmitEmpty(`,"gpu_budget_w":`, r.GPUBudgetW)
	w.floatOmitEmpty(`,"gpu_alpha":`, r.GPUAlpha)
	w.floatOmitEmpty(`,"gpu_clock_hz":`, r.GPUClockHz)
	if len(r.GPUQuarantined) > 0 {
		w.ints(`,"gpu_quarantined":`, r.GPUQuarantined)
	}
	if len(r.GPUAllocations) > 0 {
		w.b = append(w.b, `,"gpu_allocations":[`...)
		for i, a := range r.GPUAllocations {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = strconv.AppendInt(append(w.b, `{"device":`...), int64(a.Device), 10)
			w.float(`,"power_w":`, a.PowerW)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}', '\n')
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// solveBodyCap estimates renderSolve's output from the entry counts at the
// widths a served body has — ids of up to four digits, watts and hertz of
// up to 17 significant digits and 18 bytes — so a served body fills one
// allocation of about its own size, which the solve cache then retains. A
// longer body (tiny or huge floats, escaped strings) regrows the buffer.
func solveBodyCap(r *SolveResponse) int {
	const (
		fixed     = 512 // keys, scalars and brackets
		perModule = 104 // {"module":…,"pmodule_w":…,"pcpu_w":…,"pdram_w":…},
		perDevice = 48  // {"device":…,"power_w":…},
	)
	return fixed + len(r.System) + len(r.Workload) + len(r.Scheme) + len(r.Faults) + len(r.Splitter) +
		5*(len(r.Quarantined)+len(r.GPUQuarantined)) +
		perModule*len(r.Allocations) + perDevice*len(r.GPUAllocations)
}

// bodyWriter appends JSON members to b. The first float encoding error is
// kept and later floats are skipped, as encoding/json stops at its first.
type bodyWriter struct {
	b   []byte
	err error
}

// str appends key and s as a JSON string. Printable ASCII other than
// `"\<>&` is copied between quotes; anything else goes through
// json.Marshal, which escapes exactly as the encoder does.
func (w *bodyWriter) str(key, s string) {
	w.b = append(w.b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// float appends key and f as encoding/json's float encoder writes it.
func (w *bodyWriter) float(key string, f float64) {
	w.b = append(w.b, key...)
	if w.err == nil {
		w.b, w.err = appendJSONFloat(w.b, f)
	}
}

// floatOmitEmpty is float for an omitempty field: ±0 is left out.
func (w *bodyWriter) floatOmitEmpty(key string, f float64) {
	if f != 0 {
		w.float(key, f)
	}
}

// ints appends key and a non-empty []int as a JSON array.
func (w *bodyWriter) ints(key string, v []int) {
	w.b = append(w.b, key...)
	w.b = append(w.b, '[')
	for i, x := range v {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = strconv.AppendInt(w.b, int64(x), 10)
	}
	w.b = append(w.b, ']')
}
