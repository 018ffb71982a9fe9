package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rps", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"same", steady, []float64{1.01, 1.00, 0.99, 1.02, 1.00}, lower, "unchanged"},
		{"within bound", steady, []float64{1.07, 1.08, 1.06, 1.07, 1.08}, lower, "unchanged"},
		{"regressed", steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, lower, "regressed"},
		{"noisy", steady, []float64{0.7, 1.3, 1.0, 0.8, 1.25}, lower, "unresolved"},
		{"noisy but every run better", []float64{2.0, 3.0, 2.5, 4.0, 2.2}, steady, lower, "unchanged"},
		{"higher is better: drop regresses", steady, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, higher, "regressed"},
		{"higher is better: rise is fine", steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, higher, "unchanged"},
	} {
		if got := classify(c.a, c.b, c.spec).Class; got != c.want {
			t.Errorf("%s: class %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := `{"workloads": [{"name": "hot-direct"}], "end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	h := header{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: "x", NProc: 2, GOMAXPROCS: 2, Commit: "a"}
	write := func(name string, h header, seed uint64, vals ...float64) string {
		p := filepath.Join(dir, name)
		rs := runSetFile{Header: h, Seed: seed, Seconds: 10, Workloads: map[string]map[string][]float64{"hot-direct": {"p50_ms": vals}}}
		if err := writeJSON(p, rs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parent := write("a.json", h, 1, 1, 1.01, 0.99, 1, 1)
	h2 := h
	h2.Commit = "b" // a different commit on the same machine is the point of comparing
	same := write("b.json", h2, 1, 1.02, 1, 0.99, 1.01, 1)
	worse := write("c.json", h2, 1, 1.3, 1.31, 1.29, 1.3, 1.3)
	var out strings.Builder
	if ok, err := compareFiles(&out, dir, parent, same); err != nil || !ok {
		t.Errorf("same code: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, dir, parent, worse); err != nil || ok || !strings.Contains(out.String(), "regressed") {
		t.Errorf("regression not reported: ok=%v err=%v\n%s", ok, err, out.String())
	}
	h3 := h
	h3.CPU = "another machine"
	if _, err := compareFiles(io.Discard, dir, parent, write("d.json", h3, 1, 1, 1, 1, 1, 1)); err == nil {
		t.Error("compared run-sets from different machines")
	}
	if _, err := compareFiles(io.Discard, dir, parent, write("e.json", h2, 2, 1, 1, 1, 1, 1)); err == nil {
		t.Error("compared run-sets of different seeds")
	}
}
