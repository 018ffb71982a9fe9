package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"varpower/internal/attrib"
	"varpower/internal/core"
	"varpower/internal/units"
)

// SolveRequest is the body of POST /v1/solve and POST /v1/jobs: one
// (system, workload, constraint, scheme) budgeting question. Budget accepts
// a unit-suffixed string ("134kW", "96 kW", "80000"); BudgetWatts a raw
// number — exactly one must be set.
type SolveRequest struct {
	System   string `json:"system"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`

	Budget      string  `json:"budget,omitempty"`
	BudgetWatts float64 `json:"budget_watts,omitempty"`

	// Modules is the job's allocation size (first-fit, like the paper's
	// dedicated-system HA8K experiments); 0 selects every loaded module.
	Modules int `json:"modules,omitempty"`
	// Seed overrides the daemon's system seed: a non-zero value other than
	// the serving seed instantiates (and calibrates) a fresh system replica —
	// the expensive cold path the solve cache exists to absorb.
	Seed uint64 `json:"seed,omitempty"`
	// Faults names a fault-severity rung from faults.Ladder ("none", "low",
	// "medium", "high"): the solve then runs against hardware failing at
	// those rates, installed via cluster.InstallFaults. Empty means healthy.
	Faults string `json:"faults,omitempty"`
	// Splitter selects the hierarchical class-budget policy on hybrid
	// CPU+GPU systems ("uniform", "proportional", "efficiency", "greedy";
	// default greedy). Rejected for CPU-only systems.
	Splitter string `json:"splitter,omitempty"`
	// Tenant labels the request for observability — trace attributes, log
	// lines and job attribution. It never affects the solve itself: it is
	// excluded from the cache keys and absent from SolveResponse, so two
	// tenants asking the same question share one byte-identical answer.
	Tenant string `json:"tenant,omitempty"`
}

// budget resolves the two budget fields into watts, rejecting a budget
// that is not a positive, finite power before any work is done for it.
func (r *SolveRequest) budget() (units.Watts, error) {
	w := units.Watts(r.BudgetWatts)
	switch {
	case r.Budget != "" && r.BudgetWatts != 0:
		return 0, fmt.Errorf("set budget or budget_watts, not both")
	case r.Budget != "":
		var err error
		if w, err = units.ParseWatts(r.Budget); err != nil {
			return 0, err
		}
	case r.BudgetWatts == 0:
		return 0, fmt.Errorf("missing budget (give budget %q-style or budget_watts)", "134kW")
	}
	if !(w > 0) || math.IsInf(float64(w), 1) {
		return 0, fmt.Errorf("budget %v is not a positive, finite power", w)
	}
	return w, nil
}

// ModuleAllocation is one module's share of a solved budget (Equations 7–9).
type ModuleAllocation struct {
	Module  int     `json:"module"`
	PModule float64 `json:"pmodule_w"`
	PCPU    float64 `json:"pcpu_w"`
	PDram   float64 `json:"pdram_w"`
}

// SolveResponse is the body of a successful POST /v1/solve: the canonical
// echo of the request plus the allocation the budgeting algorithm derived.
// Identical requests marshal to byte-identical bodies — the solve cache
// stores the rendered bytes, and the response deliberately carries no
// timestamps, durations or cache markers (cache disposition travels in the
// X-Varpower-Cache header instead).
type SolveResponse struct {
	System      string  `json:"system"`
	Workload    string  `json:"workload"`
	Scheme      string  `json:"scheme"`
	BudgetWatts float64 `json:"budget_watts"`
	Modules     int     `json:"modules"`
	Seed        uint64  `json:"seed"`
	Faults      string  `json:"faults,omitempty"`

	Alpha       float64 `json:"alpha"`
	FreqHz      float64 `json:"freq_hz"`
	Feasible    bool    `json:"feasible"`
	Clamped     bool    `json:"clamped"`
	Constrained bool    `json:"constrained"`

	// PredictedPowerW is the summed per-module allocation (≤ budget when
	// feasible); PredictedTimeS the model-level elapsed-time estimate at the
	// α-derived frequency (core.PredictTime).
	PredictedPowerW float64 `json:"predicted_power_w"`
	PredictedTimeS  float64 `json:"predicted_time_s"`

	// Quarantined lists modules whose install-time calibration was rejected
	// (only non-empty under a faults level).
	Quarantined []int `json:"quarantined,omitempty"`

	Allocations []ModuleAllocation `json:"allocations"`

	// The fields below are present for hybrid CPU+GPU systems only: the
	// class-budget split the splitter derived and the GPU class's solve.
	Splitter       string          `json:"splitter,omitempty"`
	CPUBudgetW     float64         `json:"cpu_budget_w,omitempty"`
	GPUBudgetW     float64         `json:"gpu_budget_w,omitempty"`
	GPUAlpha       float64         `json:"gpu_alpha,omitempty"`
	GPUClockHz     float64         `json:"gpu_clock_hz,omitempty"`
	GPUQuarantined []int           `json:"gpu_quarantined,omitempty"`
	GPUAllocations []GPUAllocation `json:"gpu_allocations,omitempty"`
}

// GPUAllocation is one device's share of a solved GPU class budget.
type GPUAllocation struct {
	Device int     `json:"device"`
	PowerW float64 `json:"power_w"`
}

// JobState is a queued run's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobResult is the measured outcome of a completed job: the full simulated
// run behind the solve (final-run execution included), not just the model.
type JobResult struct {
	Alpha     float64 `json:"alpha"`
	FreqHz    float64 `json:"freq_hz"`
	ElapsedS  float64 `json:"elapsed_s"`
	AvgPowerW float64 `json:"avg_power_w"`
	EnergyJ   float64 `json:"energy_j"`
	DeadRanks []int   `json:"dead_ranks,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id} (and the 202 from POST
// /v1/jobs, in its queued form).
type JobStatus struct {
	ID      string       `json:"id"`
	State   JobState     `json:"state"`
	Request SolveRequest `json:"request"`
	Result  *JobResult   `json:"result,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// AttribResponse is the body of GET /v1/attrib/{system}: the system's live
// attribution + drift report and the PVT generation it was observed under.
type AttribResponse struct {
	System string `json:"system"`
	// Generation counts PVT recalibrations (0 = install-time table).
	Generation uint64         `json:"generation"`
	Report     *attrib.Report `json:"report"`
}

// RecalibrateRequest is the body of POST /v1/recalibrate: an incremental
// PVT refresh of one owned system. Modules lists which to re-measure; empty
// selects the drift detector's currently flagged set (and the request fails
// with 400 when that is empty too — a healthy system has nothing to splice).
type RecalibrateRequest struct {
	System  string `json:"system"`
	Modules []int  `json:"modules,omitempty"`
}

// RecalibrateResponse is the body of a successful POST /v1/recalibrate.
type RecalibrateResponse struct {
	System string `json:"system"`
	// Generation is the post-splice PVT generation; solve and PMT cache keys
	// are generation-prefixed, so allocations computed against the previous
	// table can no longer be served.
	Generation uint64 `json:"generation"`
	// Modules lists the refreshed module IDs in ascending order.
	Modules []int               `json:"modules"`
	Report  *core.RefreshReport `json:"report"`
}

// APIError is the structured error body every endpoint returns on failure:
//
//	{"error": {"status": 400, "code": "bad_request", "message": "..."}}
type APIError struct {
	Err ErrorBody `json:"error"`
	// RetryAfter is the server's Retry-After hint in seconds (0 when the
	// response carried none). It travels in the header, not the JSON body,
	// so the client fills it in after decoding; retry loops use it as the
	// backoff floor.
	RetryAfter int `json:"-"`
}

// ErrorBody is APIError's payload.
type ErrorBody struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error so clients can surface the server's message.
func (e *APIError) Error() string {
	return fmt.Sprintf("varpowerd: %s (%d %s)", e.Err.Message, e.Err.Status, e.Err.Code)
}

// Error codes used by the handlers.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeQueueFull  = "queue_full"
	CodeDraining   = "draining"
	CodeInternal   = "internal"
)

// writeError renders the structured error body with the given HTTP status.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(APIError{Err: ErrorBody{
		Status: status, Code: code, Message: fmt.Sprintf(format, args...),
	}})
}

// writeJSON renders v as a compact JSON body with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// maxBodyBytes bounds request bodies; solve requests are tiny.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes a JSON request body into v: unknown fields
// and trailing garbage are errors, so typos surface as 400s instead of
// silently solving a different question.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode request body: trailing data after JSON object")
	}
	return nil
}
