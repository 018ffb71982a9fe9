package service_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"varpower/internal/faults"
	"varpower/internal/service"
	"varpower/internal/service/loadgen"
)

// driftConfig is testConfig with a single cap-drift event installed, so the
// served cluster's module 3 enforces 20% above its programmed cap.
func driftConfig() service.Config {
	cfg := testConfig()
	cfg.Faults = &faults.Plan{
		Name:   "test-drift",
		Events: []faults.Event{{Module: 3, Kind: faults.KindCapDrift, Magnitude: 1.2}},
	}
	return cfg
}

// TestDriftLoopEndToEnd drives the whole served loop through the public API:
// jobs feed the collector, /v1/attrib flags the drifter, /v1/recalibrate
// splices the PVT, and the post-refresh /v1/solve is a cache miss with a
// different α.
func TestDriftLoopEndToEnd(t *testing.T) {
	_, hs, _ := newTestServer(t, driftConfig())
	rep, err := loadgen.DriftCheck(context.Background(), loadgen.DriftOptions{BaseURL: hs.URL, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0] != 3 {
		t.Fatalf("flagged %v, want [3]", rep.Flagged)
	}
	if rep.GenAfter != rep.GenBefore+1 {
		t.Fatalf("PVT generation %d -> %d, want +1", rep.GenBefore, rep.GenAfter)
	}
	if rep.AlphaAfter == rep.AlphaBefore {
		t.Fatalf("recalibration left α unchanged (%v)", rep.AlphaBefore)
	}
	if rep.Residuals[3] <= 1.02 {
		t.Fatalf("module 3 residual %v, want > 1.02", rep.Residuals[3])
	}
}

// TestAttribEndpointFresh asserts a just-booted system serves an empty,
// unflagged ledger at generation zero.
func TestAttribEndpointFresh(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	resp, err := c.Attrib(context.Background(), "HA8K")
	if err != nil {
		t.Fatal(err)
	}
	if resp.System != "HA8K" || resp.Generation != 0 {
		t.Fatalf("fresh attrib response %+v", resp)
	}
	if resp.Report == nil || resp.Report.Runs != 0 || len(resp.Report.Flagged) != 0 {
		t.Fatalf("fresh report %+v, want empty", resp.Report)
	}
}

// TestRecalibrateHealthyRefuses asserts recalibration without an explicit
// module list is rejected when the detector has flagged nothing — a healthy
// system cannot be churned by an empty-bodied POST.
func TestRecalibrateHealthyRefuses(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	_, err := c.Recalibrate(context.Background(), service.RecalibrateRequest{System: "HA8K"})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Err.Status != 400 {
		t.Fatalf("recalibrate on healthy system: err %v, want 400", err)
	}
}

// TestRecalibrateRejectsBadModules asserts a listed module id the system
// does not have is the client's error: a 400 naming the id and the valid
// range, answered before any probe runs (the PVT generation stays put).
// Duplicate ids are still accepted and refreshed once.
func TestRecalibrateRejectsBadModules(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	ctx := context.Background()
	for _, tc := range []struct {
		modules []int
		want    string
	}{
		{[]int{99999}, "module 99999 outside [0,32)"},
		{[]int{-1}, "module -1 outside [0,32)"},
		{[]int{3, 32}, "module 32 outside [0,32)"},
	} {
		_, err := c.Recalibrate(ctx, service.RecalibrateRequest{System: "HA8K", Modules: tc.modules})
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) || apiErr.Err.Status != 400 || apiErr.Err.Code != service.CodeBadRequest {
			t.Fatalf("recalibrate %v: err %v, want 400 %s", tc.modules, err, service.CodeBadRequest)
		}
		if !strings.Contains(apiErr.Err.Message, tc.want) {
			t.Fatalf("recalibrate %v: message %q, want it to name %q", tc.modules, apiErr.Err.Message, tc.want)
		}
	}
	a, err := c.Attrib(ctx, "HA8K")
	if err != nil {
		t.Fatal(err)
	}
	if a.Generation != 0 {
		t.Fatalf("rejected recalibrations moved the PVT generation to %d", a.Generation)
	}
	resp, err := c.Recalibrate(ctx, service.RecalibrateRequest{System: "HA8K", Modules: []int{3, 3}})
	if err != nil {
		t.Fatalf("recalibrate [3,3]: %v", err)
	}
	if !slices.Equal(resp.Modules, []int{3}) || resp.Generation != 1 {
		t.Fatalf("recalibrate [3,3]: modules %v at generation %d, want [3] at 1", resp.Modules, resp.Generation)
	}
}

func TestAttribUnknownSystem(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	if _, err := c.Attrib(context.Background(), "nope"); err == nil {
		t.Fatal("attrib for unknown system succeeded")
	}
	_, err := c.Recalibrate(context.Background(), service.RecalibrateRequest{System: "nope", Modules: []int{1}})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Err.Status != 404 {
		t.Fatalf("recalibrate unknown system: err %v, want 404", err)
	}
}
