// Command varbench is varpower's end-to-end benchmark. It drives the real
// varpowerd binary, built from the same checkout, through four served
// workloads and the experiments API through a fifth; it checks every output
// it receives, prints each metric by name and unit, and writes a results
// file. Each run also times a reference — for served workloads a bare HTTP
// server, run by varbench itself with -echo, for eval-grid a fixed
// computation — beside the work, and the gated latency is read against it.
// bench/README.md explains the workloads and the metrics.
//
// Usage (bench/run.sh builds both binaries and passes -root and -varpowerd):
//
//	varbench -workload NAME -seed N [-seconds S] [-trace 0|1] [-out FILE]
//	varbench -runset K -seed N [-seconds S] -out FILE
//	varbench -compare A.json B.json
//	varbench -echo ADDR -echo-bytes N
//
// A single run prints its metrics, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"},
// where metrics holds the end-to-end metrics BENCHMARK.json lists (or, with
// -trace 1, its per-layer metrics). It exits 1 when any check failed.
// -runset runs every workload BENCHMARK.json lists K times at one seed,
// each in a fresh process, and collects the end-to-end metrics; -compare
// classes each (metric, workload) of two run-sets as regressed, unchanged
// or unresolved under the bounds in BENCHMARK.json. -echo serves the
// reference server until killed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	root      string
	seed      uint64
	seconds   float64
	trace     bool
	tracePath string
	// gridModules is eval-grid's HA8K module count.
	gridModules int
	// boots is how many times a served run boots its topology and measures
	// it. Where the kernel places a fresh set of processes on the two cores
	// moves a boot's latency by a tenth or more, so a run reports the median
	// over its boots. A served run's setup_s is the median over setupBoots
	// boots: the measured ones and, between them, more that are only timed.
	boots, setupBoots int
	// slice is the length of one measured stretch of a served schedule. A
	// boot's measured window alternates slices on the daemon with the same
	// slices, request for request, on the reference server.
	slice time.Duration
	// newTopology boots the served configuration under test.
	newTopology func(routed bool) topology
	// newReference boots the reference server with a body of the given size.
	newReference func(size int) topology
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// metric is one measured value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// check is one correctness gate's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run measured and checked; it is also the results
// file's format.
type result struct {
	Header    header            `json:"header"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`

	notes  []string
	layers []*layerStat
}

func (r *result) set(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check("metric "+name+" is defined", false, "no samples")
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// check records a gate's outcome. A gate checked again (once per boot, say)
// keeps one entry, failed if any check failed, with the first failure's
// detail.
func (r *result) check(name string, ok bool, format string, args ...any) {
	i := slices.IndexFunc(r.Checks, func(c check) bool { return c.Name == name })
	if i < 0 {
		r.Checks = append(r.Checks, check{Name: name, OK: true})
		i = len(r.Checks) - 1
	}
	if c := &r.Checks[i]; !ok && c.OK {
		c.OK, c.Detail = false, fmt.Sprintf(format, args...)
	}
}

// run executes one workload.
func run(ctx context.Context, workload string, cfg runConfig) (*result, error) {
	res := &result{Header: machineHeader(cfg.root), Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Metrics: make(map[string]metric)}
	var err error
	switch workload {
	case "eval-grid":
		err = runGrid(ctx, cfg, res)
	case "hot-direct", "hot-routed", "sweep-mixed", "churn":
		err = runServed(ctx, workload, cfg, res)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed      = flag.Uint64("seed", 1, "workload seed: generates keys, budgets and order")
		seconds   = flag.Float64("seconds", 10, "measured window per run, in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead of end-to-end ones")
		out       = flag.String("out", "", "results file (default .bench_build/varbench/<workload>-s<seed>-t<trace>.json); with -runset, the run-set file")
		root      = flag.String("root", ".", "repository checkout to benchmark")
		varpowerd = flag.String("varpowerd", "", "varpowerd binary built from -root")
		runs      = flag.Int("runset", 0, "run every workload this many times and write a run-set to -out")
		compare   = flag.Bool("compare", false, "compare two run-set files given as arguments")
		echo      = flag.String("echo", "", "serve a fixed body on this address (the reference server)")
		echoBytes = flag.Int("echo-bytes", 0, "the reference server's body size")
	)
	flag.Parse()
	var err error
	switch {
	case *echo != "":
		err = serveEcho(*echo, *echoBytes)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two run-set files")
			break
		}
		var ok bool
		ok, err = compareFiles(os.Stdout, *root, flag.Arg(0), flag.Arg(1))
		if err == nil && !ok {
			os.Exit(1)
		}
	case *runs > 0:
		err = runSet(*root, *varpowerd, *seed, *seconds, *runs, *out)
	default:
		var ok bool
		ok, err = runOne(*root, *varpowerd, *workload, *seed, *seconds, *trace, *out)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "varbench:", err)
		os.Exit(1)
	}
}

// runOne runs a workload, writes its results file and prints the report.
func runOne(root, varpowerd, workload string, seed uint64, seconds float64, trace int, out string) (bool, error) {
	if trace != 0 && trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if varpowerd == "" && workload != "eval-grid" {
		return false, errors.New("-varpowerd is required for served workloads (bench/run.sh passes it)")
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	base := filepath.Join(root, ".bench_build", "varbench", fmt.Sprintf("%s-s%d-t%d", workload, seed, trace))
	if out == "" {
		out = base + ".json"
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	// The generator shares two cores with the daemons; collecting its
	// garbage a quarter as often keeps it from perturbing what it measures.
	debug.SetGCPercent(400)
	cfg := runConfig{root: root, seed: seed, seconds: seconds, trace: trace == 1, tracePath: base + ".trace.json",
		gridModules: 480, boots: 7, setupBoots: 21, slice: 250 * time.Millisecond,
		newTopology:  func(routed bool) topology { return &procTopology{bin: varpowerd, routed: routed} },
		newReference: func(size int) topology { return &procTopology{bin: self, echo: size} }}
	// A run must finish within 180 s; give up well before that.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, workload, cfg)
	if err != nil {
		return false, err
	}
	if err := writeJSON(out, res); err != nil {
		return false, err
	}
	line, err := report(os.Stdout, res, bf)
	if err != nil {
		return false, err
	}
	fmt.Println(line)
	return res.Correct, nil
}

// report prints a run's metrics, checks, layer table and notes, and returns
// the final JSON line with the metrics BENCHMARK.json lists for the mode.
func report(w io.Writer, res *result, bf *benchmarkFile) (string, error) {
	fmt.Fprintf(w, "varbench %s seed=%d seconds=%g trace=%v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-26s %14.6g %-6s (n=%d)\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s %s\n", status, c.Name, c.Detail)
	}
	if res.layers != nil {
		writeLayerTable(w, res.layers)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, " ", n)
	}
	specs := bf.EndToEnd
	if res.Trace {
		specs = bf.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok {
			if !res.Correct {
				continue // a failed check can leave later metrics unmeasured
			}
			return "", fmt.Errorf("workload %s did not measure %s", res.Workload, s.Name)
		}
		metrics[s.Name] = value{m.Value, s.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(line), err
}

// benchmarkFile is BENCHMARK.json: the workloads, the metrics and the
// bounds a change is judged by.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// workloads returns the names of the workloads the file lists.
func (bf *benchmarkFile) workloads() []string {
	var out []string
	for _, w := range bf.Workloads {
		out = append(out, w.Name)
	}
	return out
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// header identifies the machine and code a result came from. Comparisons
// are refused across machines: timings from different hardware are not
// comparable.
type header struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// machine is the part of the header that must match for a comparison.
func (h header) machine() header {
	h.Commit = ""
	return h
}

func machineHeader(root string) header {
	return header{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(root),
	}
}
