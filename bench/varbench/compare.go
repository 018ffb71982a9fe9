package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSetFile is a run-set: every workload run several times at one seed on
// one machine, keeping each run's end-to-end metrics. Its spread is the
// run-to-run noise a comparison must see past.
type runSetFile struct {
	Header    header                          `json:"header"`
	Seed      uint64                          `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	Workloads map[string]map[string][]float64 `json:"workloads"` // workload → metric → one value per run
}

// runSet runs every workload BENCHMARK.json lists runs times, interleaving
// workloads so slow drift on the machine spreads over all of them, each run
// in a fresh process exactly as a single run would be made.
func runSet(root, varpowerd string, seed uint64, seconds float64, runs int, out string) error {
	if out == "" {
		return fmt.Errorf("-runset needs -out")
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rs := runSetFile{Header: machineHeader(root), Seed: seed, Seconds: seconds, Workloads: make(map[string]map[string][]float64)}
	for r := 0; r < runs; r++ {
		for _, w := range bf.workloads() {
			tmp := filepath.Join(root, ".bench_build", "varbench", "runset", fmt.Sprintf("%s-%d.json", w, r))
			cmd := exec.Command(self, "-root", root, "-varpowerd", varpowerd, "-workload", w,
				"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", tmp)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run %d of %s: %w", r+1, w, err)
			}
			var res result
			b, err := os.ReadFile(tmp)
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				return err
			}
			if rs.Workloads[w] == nil {
				rs.Workloads[w] = make(map[string][]float64)
			}
			for _, m := range bf.EndToEnd {
				rs.Workloads[w][m.Name] = append(rs.Workloads[w][m.Name], res.Metrics[m.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "varbench: run-set %d/%d %s done\n", r+1, runs, w)
		}
	}
	for _, w := range bf.workloads() {
		for _, m := range bf.EndToEnd {
			xs := rs.Workloads[w][m.Name]
			fmt.Printf("%-12s %-8s median %12.6g %-3s spread %6.2f%% (bound %.0f%%)\n", w, m.Name, median(xs), m.Unit, 100*spread(xs), 100*m.Bound)
		}
	}
	return writeJSON(out, rs)
}

// compareRow is one (metric, workload) pair of a comparison.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // share by which B is worse than A (negative: better)
	SpreadA, SpreadB float64
	Bound            float64
	Class            string
}

// classify applies a metric's bound to two sets of runs. The change (b) has
// regressed when its median is worse than the parent's (a) by more than the
// bound. When either side's run-to-run spread exceeds the bound the medians
// cannot show that, and the pair is unresolved — unless every run of b
// reads better than every run of a.
func classify(a, b []float64, spec metricSpec) compareRow {
	r := compareRow{Metric: spec.Name, A: median(a), B: median(b), SpreadA: spread(a), SpreadB: spread(b), Bound: spec.Bound}
	r.Worse = (r.B - r.A) / r.A
	better := func(x, y float64) bool { return x < y } // x better than y
	if spec.Better == "higher" {
		r.Worse = -r.Worse
		better = func(x, y float64) bool { return x > y }
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case allBetter:
		r.Class = "unchanged"
	case r.SpreadA > spec.Bound || r.SpreadB > spec.Bound:
		r.Class = "unresolved"
	case r.Worse > spec.Bound:
		r.Class = "regressed"
	default:
		r.Class = "unchanged"
	}
	return r
}

// compareFiles prints one row per (metric, workload) of run-sets a (the
// parent) and b (the change) and reports whether none regressed or was
// unresolved.
func compareFiles(w io.Writer, root, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	var sets [2]runSetFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
	}
	if ma, mb := sets[0].Header.machine(), sets[1].Header.machine(); ma != mb {
		return false, fmt.Errorf("refusing to compare runs from different machines:\n  %+v\n  %+v", ma, mb)
	}
	if sets[0].Seed != sets[1].Seed || sets[0].Seconds != sets[1].Seconds {
		return false, fmt.Errorf("refusing to compare run-sets with different inputs (seed %d vs %d, %gs vs %gs)",
			sets[0].Seed, sets[1].Seed, sets[0].Seconds, sets[1].Seconds)
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-8s %12s %12s %8s %9s %9s %6s  %s\n", "workload", "metric", "a", "b", "worse", "spread_a", "spread_b", "bound", "class")
	for _, wl := range bf.workloads() {
		for _, spec := range bf.EndToEnd {
			a, b := sets[0].Workloads[wl][spec.Name], sets[1].Workloads[wl][spec.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			r := classify(a, b, spec)
			ok = ok && r.Class == "unchanged"
			fmt.Fprintf(w, "%-12s %-8s %12.6g %12.6g %7.2f%% %8.2f%% %8.2f%% %5.0f%%  %s\n",
				wl, spec.Name, r.A, r.B, 100*r.Worse, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, r.Class)
		}
	}
	return ok, nil
}

// cpuModel is the first "model name" in /proc/cpuinfo ("unknown" off Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git HEAD, or "unknown" when the checkout is not
// a git repository (git is not asked to search above it).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
