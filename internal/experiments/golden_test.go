package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// update rewrites the golden snapshots instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the testdata golden files")

// checkGolden compares rendered output against testdata/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: rendered output diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with -update.",
			path, got, want)
	}
}

// goldenOpts pins the scale and seed the snapshots were rendered at. The
// deterministic engine — keyed RNG streams, worker-count-independent
// fan-out — is what makes golden-file testing of measured artifacts
// possible at all.
func goldenOpts() Options {
	o := smallOpts()
	o.HA8KModules = 96
	return o
}

// TestGoldenTable2 snapshots the static architecture table.
func TestGoldenTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable2(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2", buf.Bytes())
}

// TestGoldenFigure5 snapshots the power-in-frequency linearity study at the
// fixed seed.
func TestGoldenFigure5(t *testing.T) {
	f5, err := Figure5(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure5(&buf, f5); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure5", buf.Bytes())
}

// TestTable4Golden snapshots Table 4 at the golden scale: every row's marks
// and the two per-module powers that place its boundaries, printed at full
// precision, so a change in how a row is measured that moves either power
// by one ulp shows here even when no mark flips.
func TestTable4Golden(t *testing.T) {
	t4, err := Table4(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "cm_w %v\n", t4.CmW)
	full := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, row := range t4.Rows {
		fmt.Fprintf(&buf, "%s %v uncapped_w=%s fmin_w=%s\n", row.Bench, row.Marks, full(row.UncappedModuleW), full(row.FminModuleW))
	}
	checkGolden(t, "table4", buf.Bytes())
}

// TestGoldenFigure7 snapshots the headline speedup table — the full
// evaluation grid rendered at the fixed seed. Any change to measurement,
// calibration, budgeting or enforcement shows up here as a diff.
func TestGoldenFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation grid is slow; skipped with -short")
	}
	g, err := EvaluationGrid(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Figure7(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure7(&buf, f7); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure7", buf.Bytes())
}
