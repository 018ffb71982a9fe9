package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"varpower/internal/benchparse"
)

func testConfig() Config {
	return Config{
		NsRatioMax:     2.0,
		NsFloor:        1e6,
		AllocsRatioMax: 1.25,
		AllocCeilings:  map[string]int64{"BenchmarkHot": 1000},
		PairRules: []PairRule{{
			Name: "par-vs-serial", Num: "BenchmarkPar", Den: "BenchmarkSer",
			MaxNsRatio: 1.15, MinGomaxprocs: 2,
		}},
	}
}

func failures(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if !f.OK {
			out = append(out, f)
		}
	}
	return out
}

func TestGatePasses(t *testing.T) {
	base := []benchparse.Bench{
		{Name: "BenchmarkHot", NsOp: 10e6, AllocsOp: 900},
		{Name: "BenchmarkPar", NsOp: 5e6, AllocsOp: 100},
		{Name: "BenchmarkSer", NsOp: 9e6, AllocsOp: 100},
	}
	cur := []benchparse.Bench{
		{Name: "BenchmarkHot", NsOp: 12e6, AllocsOp: 950},
		{Name: "BenchmarkPar", NsOp: 5e6, AllocsOp: 100},
		{Name: "BenchmarkSer", NsOp: 9e6, AllocsOp: 100},
	}
	fs, err := gate(testConfig(), base, cur, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bad := failures(fs); len(bad) != 0 {
		t.Fatalf("unexpected failures: %v", bad)
	}
}

func TestGateCatchesRegressions(t *testing.T) {
	base := []benchparse.Bench{
		{Name: "BenchmarkHot", NsOp: 10e6, AllocsOp: 900},
		{Name: "BenchmarkGone", NsOp: 10e6, AllocsOp: 10},
	}
	cur := []benchparse.Bench{
		// 3x slower (ns-ratio), 2x allocs (allocs-ratio), over the hard
		// ceiling (alloc-ceil); BenchmarkGone vanished (coverage).
		{Name: "BenchmarkHot", NsOp: 30e6, AllocsOp: 1800},
	}
	cfg := testConfig()
	cfg.PairRules = nil
	fs, err := gate(cfg, base, cur, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range failures(fs) {
		got[f.Check] = true
	}
	for _, want := range []string{"coverage", "ns-ratio", "allocs-ratio", "alloc-ceil"} {
		if !got[want] {
			t.Errorf("check %q did not fail; failures: %v", want, failures(fs))
		}
	}
}

func TestGateNsFloorSkipsNoise(t *testing.T) {
	base := []benchparse.Bench{{Name: "BenchmarkTiny", NsOp: 1000, AllocsOp: 5}}
	cur := []benchparse.Bench{{Name: "BenchmarkTiny", NsOp: 100000, AllocsOp: 5}}
	cfg := testConfig()
	cfg.AllocCeilings, cfg.PairRules = nil, nil
	fs, err := gate(cfg, base, cur, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bad := failures(fs); len(bad) != 0 {
		t.Fatalf("sub-floor benchmark failed ns gate: %v", bad)
	}
}

func TestGatePairRule(t *testing.T) {
	base := []benchparse.Bench{
		{Name: "BenchmarkPar", NsOp: 5e6, AllocsOp: 1},
		{Name: "BenchmarkSer", NsOp: 5e6, AllocsOp: 1},
	}
	// Parallel 2x slower than serial: must fail on a wide machine...
	cur := []benchparse.Bench{
		{Name: "BenchmarkPar", NsOp: 10e6, AllocsOp: 1},
		{Name: "BenchmarkSer", NsOp: 5e6, AllocsOp: 1},
	}
	cfg := testConfig()
	cfg.NsRatioMax, cfg.AllocsRatioMax = 0, 0
	cfg.AllocCeilings = nil
	fs, err := gate(cfg, base, cur, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bad := failures(fs); len(bad) != 1 || bad[0].Check != "pair-ratio" {
		t.Fatalf("wide machine: failures %v, want one pair-ratio", bad)
	}
	// ...and be skipped (passing) below min_gomaxprocs.
	fs, err = gate(cfg, base, cur, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := failures(fs); len(bad) != 0 {
		t.Fatalf("narrow machine: failures %v, want none", bad)
	}
	var sawSkip bool
	for _, f := range fs {
		if f.Check == "pair-ratio" && strings.Contains(f.Detail, "skipped") {
			sawSkip = true
		}
	}
	if !sawSkip {
		t.Fatal("pair rule was not reported as skipped")
	}
}

func TestRenderCountsFailures(t *testing.T) {
	var sb strings.Builder
	ok := render(&sb, []Finding{{OK: true, Check: "x"}, {OK: false, Check: "y"}})
	if ok {
		t.Fatal("render reported pass with a failure present")
	}
	if !strings.Contains(sb.String(), "2 checks, 1 failed") {
		t.Fatalf("report summary missing: %q", sb.String())
	}
}

// TestCommittedBaselineAgainstRawTextAtWidth2 gates the committed BENCH.json
// against the same records printed as raw `go test` text on a 2-CPU host,
// where every name carries a -2 suffix. Only the text is normalised, so the
// baseline's own BenchmarkAblationCliff/exp-2 keeps its name and an
// identical run passes.
func TestCommittedBaselineAgainstRawTextAtWidth2(t *testing.T) {
	const width = 2
	basePath := filepath.Join("..", "..", "BENCH.json")
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []benchparse.Bench
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&text, "%s-%d\t1\t%g ns/op\t%d allocs/op\n", r.Name, width, r.NsOp, r.AllocsOp)
	}
	curPath := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(curPath, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBenches(basePath, width)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := readBenches(curPath, width)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.AllocCeilings, cfg.PairRules = nil, nil
	fs, err := gate(cfg, base, cur, width)
	if err != nil {
		t.Fatal(err)
	}
	if bad := failures(fs); len(bad) != 0 {
		t.Fatalf("identical run failed the gate: %v", bad)
	}
}
