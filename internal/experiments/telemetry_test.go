package experiments

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"varpower/internal/obs"
	"varpower/internal/telemetry"
)

// TestGridEmitsRequiredMetricFamilies is the acceptance-criterion guard for
// the telemetry layer: after a small evaluation-grid run, the default
// registry must expose the clamp counter, the per-rank wait-time histogram,
// the budget residual gauge, and the phase-span duration histogram — the
// same families CI greps for in varsim's -metrics output.
func TestGridEmitsRequiredMetricFamilies(t *testing.T) {
	if _, err := EvaluationGrid(Options{HA8KModules: 64}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, telemetry.Default()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"varpower_rapl_clamp_events_total",
		"varpower_mpi_rank_wait_seconds",
		"varpower_budget_residual_watts",
		"varpower_phase_duration_seconds",
		"varpower_parallel_tasks_total",
	} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("metric family %q missing from Prometheus output", family)
		}
	}
	if !strings.Contains(out, `varpower_phase_duration_seconds_bucket{le="`) {
		t.Error("phase-duration histogram has no unlabeled buckets? expected per-phase series")
	}
}

// TestTracedGridSpanTree runs a small grid under a trace and checks that
// the phases nest as DESIGN §8 draws them: each framework.run under a
// grid.cell, budget.solve and framework.execute under a framework.run, and
// each cell's measured run under its framework.execute. Test runs stay out
// of the tree, so it holds one measure.run per application run.
func TestTracedGridSpanTree(t *testing.T) {
	_, rt := obs.New(obs.Config{}).StartRequest(context.Background(), obs.Request{Route: "grid"})
	g, err := EvaluationGrid(Options{HA8KModules: 48, Trace: *rt.Root()})
	if err != nil {
		t.Fatal(err)
	}
	rt.Root().End()
	spans := rt.View().Spans
	byID := make(map[string]obs.SpanView, len(spans))
	count := map[string]int{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		count[sp.Name]++
	}
	parent := func(sp obs.SpanView) string { return byID[sp.ParentID].Name }
	wantParent := map[string][]string{
		"grid.cell":         {"grid"},
		"grid.model":        {"grid"},
		"table4.row":        {"grid"},
		"framework.run":     {"grid.cell"},
		"budget.solve":      {"framework.run"},
		"framework.execute": {"framework.run"},
		"pmt.oracle":        {"grid.model"},
		"measure.run":       {"framework.execute", "table4.row"},
		"measure.resolve":   {"measure.run"},
		"measure.simulate":  {"measure.run"},
		"measure.account":   {"measure.run"},
	}
	for _, sp := range spans[1:] {
		want, ok := wantParent[sp.Name]
		if !ok {
			t.Fatalf("unexpected span %q in the grid's tree", sp.Name)
		}
		if got := parent(sp); !slices.Contains(want, got) {
			t.Errorf("%s is a child of %q, want one of %v", sp.Name, got, want)
		}
	}
	cells := len(g.Cells)
	for _, name := range []string{"grid.cell", "framework.run"} {
		if count[name] != cells {
			t.Errorf("%d %s spans, want one per cell (%d)", count[name], name, cells)
		}
	}
	if want := count["framework.execute"] + 2*count["table4.row"]; count["measure.run"] != want {
		t.Errorf("%d measure.run spans, want %d: one per final run and two per Table 4 row", count["measure.run"], want)
	}
}

// TestGridProgressReporting: Options.Progress receives per-cell completion
// for the grid stage, finishing at done == total.
func TestGridProgressReporting(t *testing.T) {
	var mu sync.Mutex
	finals := map[string][2]int{}
	o := Options{HA8KModules: 64, Progress: func(stage string, done, total int) {
		mu.Lock()
		finals[stage] = [2]int{done, total}
		mu.Unlock()
	}}
	if _, err := EvaluationGrid(o); err != nil {
		t.Fatal(err)
	}
	got, ok := finals["grid"]
	if !ok {
		t.Fatalf("no progress reported for stage %q (stages seen: %v)", "grid", finals)
	}
	if got[0] != got[1] || got[0] == 0 {
		t.Fatalf("grid progress ended at %d/%d, want done == total > 0", got[0], got[1])
	}
}

// TestGridDeterministicWithTelemetry re-checks the engine's worker-count
// determinism with progress callbacks attached — telemetry must be
// write-only with respect to simulation state.
func TestGridDeterministicWithTelemetry(t *testing.T) {
	run := func(workers int) *EvalGrid {
		g, err := EvaluationGrid(Options{
			HA8KModules: 64,
			Workers:     workers,
			Progress:    func(string, int, int) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	base := run(1)
	par := run(4)
	if len(base.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(base.Cells), len(par.Cells))
	}
	for i := range base.Cells {
		if !reflect.DeepEqual(base.Cells[i], par.Cells[i]) {
			t.Fatalf("cell %d (%s, %v, %v) differs across worker counts with telemetry on",
				i, base.Cells[i].Bench, base.Cells[i].Cs, base.Cells[i].Scheme)
		}
	}
}
