// Command benchgate is the benchmark-regression gate: it compares a fresh
// `go test -bench` run against the committed BENCH.json baseline and fails
// (exit 1) when the run regressed past the configured tolerances.
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem . > bench.txt
//	go run ./cmd/benchgate -baseline BENCH.json -current bench.txt -report benchgate.txt
//
// -current accepts either raw `go test -bench` text or a BENCH.json-style
// array (auto-detected). Four families of checks run, configured by the
// committed benchgate.json:
//
//   - coverage: every baseline benchmark must appear in the current run —
//     a silently vanished benchmark is a lost regression gate;
//   - ns/op ratio: current/baseline must stay under ns_ratio_max.
//     Wall-clock is machine-dependent, so the tolerance is generous (it
//     catches order-of-magnitude regressions, not percent drift) and
//     benchmarks whose baseline is under ns_floor are skipped as noise;
//   - allocs/op: machine-independent, gated two ways — a ratio against the
//     baseline (allocs_ratio_max) and hard per-benchmark ceilings
//     (alloc_ceilings) that encode the repository's absolute allocation
//     budgets regardless of what the baseline drifts to;
//   - pair rules: ns/op ratios between two benchmarks of the *same* run
//     (e.g. workers-max vs workers-1), which are machine-independent
//     because both sides ran on this machine. Rules with min_gomaxprocs
//     above the current width are skipped — on a single core the parallel
//     engine cannot beat the serial one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"varpower/internal/benchparse"
)

// Config is the committed benchgate.json.
type Config struct {
	// NsRatioMax bounds current/baseline ns/op per benchmark.
	NsRatioMax float64 `json:"ns_ratio_max"`
	// NsFloor skips the ns-ratio check when the baseline ns/op is below it
	// (sub-millisecond benchmarks are scheduler noise).
	NsFloor float64 `json:"ns_floor"`
	// AllocsRatioMax bounds current/baseline allocs/op per benchmark.
	AllocsRatioMax float64 `json:"allocs_ratio_max"`
	// AllocCeilings are hard allocs/op caps, independent of the baseline.
	AllocCeilings map[string]int64 `json:"alloc_ceilings"`
	// PairRules are same-run ns/op ratio bounds.
	PairRules []PairRule `json:"pair_rules"`
}

// PairRule bounds the ns/op ratio of two benchmarks from the current run.
type PairRule struct {
	Name string `json:"name"`
	// Num and Den are benchmark names; the check is ns(Num)/ns(Den) ≤ MaxNsRatio.
	Num        string  `json:"num"`
	Den        string  `json:"den"`
	MaxNsRatio float64 `json:"max_ns_ratio"`
	// MinGomaxprocs skips the rule on narrower machines (0 = always run).
	MinGomaxprocs int `json:"min_gomaxprocs"`
}

// Finding is one check's outcome.
type Finding struct {
	OK     bool
	Check  string
	Bench  string
	Detail string
}

func (f Finding) String() string {
	verdict := "PASS"
	if !f.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s  %-12s %-45s %s", verdict, f.Check, f.Bench, f.Detail)
}

// gate runs every configured check of current against baseline and returns
// the findings in a stable order.
func gate(cfg Config, baseline, current []benchparse.Bench, gomaxprocs int) ([]Finding, error) {
	base, err := benchparse.ByName(baseline)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	cur, err := benchparse.ByName(current)
	if err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	var out []Finding
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			out = append(out, Finding{OK: false, Check: "coverage", Bench: name,
				Detail: "in baseline but missing from current run"})
			continue
		}
		if cfg.NsRatioMax > 0 && b.NsOp >= cfg.NsFloor && b.NsOp > 0 {
			ratio := c.NsOp / b.NsOp
			out = append(out, Finding{OK: ratio <= cfg.NsRatioMax, Check: "ns-ratio", Bench: name,
				Detail: fmt.Sprintf("%.0f vs %.0f ns/op (%.2fx, max %.2fx)", c.NsOp, b.NsOp, ratio, cfg.NsRatioMax)})
		}
		if cfg.AllocsRatioMax > 0 && b.AllocsOp > 0 && c.AllocsOp >= 0 {
			ratio := float64(c.AllocsOp) / float64(b.AllocsOp)
			out = append(out, Finding{OK: ratio <= cfg.AllocsRatioMax, Check: "allocs-ratio", Bench: name,
				Detail: fmt.Sprintf("%d vs %d allocs/op (%.2fx, max %.2fx)", c.AllocsOp, b.AllocsOp, ratio, cfg.AllocsRatioMax)})
		}
	}

	ceilNames := make([]string, 0, len(cfg.AllocCeilings))
	for name := range cfg.AllocCeilings {
		ceilNames = append(ceilNames, name)
	}
	sort.Strings(ceilNames)
	for _, name := range ceilNames {
		ceiling := cfg.AllocCeilings[name]
		c, ok := cur[name]
		switch {
		case !ok:
			out = append(out, Finding{OK: false, Check: "alloc-ceil", Bench: name,
				Detail: "ceiling configured but benchmark missing from current run"})
		case c.AllocsOp < 0:
			out = append(out, Finding{OK: false, Check: "alloc-ceil", Bench: name,
				Detail: "current run lacks -benchmem, allocs/op unknown"})
		default:
			out = append(out, Finding{OK: c.AllocsOp <= ceiling, Check: "alloc-ceil", Bench: name,
				Detail: fmt.Sprintf("%d allocs/op (ceiling %d)", c.AllocsOp, ceiling)})
		}
	}

	for _, rule := range cfg.PairRules {
		if rule.MinGomaxprocs > gomaxprocs {
			out = append(out, Finding{OK: true, Check: "pair-ratio", Bench: rule.Name,
				Detail: fmt.Sprintf("skipped: needs GOMAXPROCS >= %d, have %d", rule.MinGomaxprocs, gomaxprocs)})
			continue
		}
		num, okN := cur[rule.Num]
		den, okD := cur[rule.Den]
		if !okN || !okD || den.NsOp <= 0 {
			out = append(out, Finding{OK: false, Check: "pair-ratio", Bench: rule.Name,
				Detail: fmt.Sprintf("missing %q or %q in current run", rule.Num, rule.Den)})
			continue
		}
		ratio := num.NsOp / den.NsOp
		out = append(out, Finding{OK: ratio <= rule.MaxNsRatio, Check: "pair-ratio", Bench: rule.Name,
			Detail: fmt.Sprintf("%s/%s = %.2fx (max %.2fx)", rule.Num, rule.Den, ratio, rule.MaxNsRatio)})
	}
	return out, nil
}

// render writes the report and returns whether every check passed.
func render(w *strings.Builder, findings []Finding) bool {
	pass := true
	failed := 0
	for _, f := range findings {
		fmt.Fprintln(w, f)
		if !f.OK {
			pass = false
			failed++
		}
	}
	fmt.Fprintf(w, "\n%d checks, %d failed\n", len(findings), failed)
	return pass
}

func readBenches(path string, gomaxprocs int) ([]benchparse.Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	benches, err := benchparse.ReadAny(data, gomaxprocs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return benches, nil
}

func run() error {
	var (
		baselinePath = flag.String("baseline", "BENCH.json", "committed baseline artifact (JSON)")
		currentPath  = flag.String("current", "", "fresh run to gate: raw `go test -bench` text or a BENCH.json-style array")
		configPath   = flag.String("config", "benchgate.json", "gate configuration")
		reportPath   = flag.String("report", "", "also write the report to this file")
		gomax        = flag.Int("gomaxprocs", 0, "width the current run executed at (0 = this process's GOMAXPROCS)")
	)
	flag.Parse()
	if *currentPath == "" {
		return fmt.Errorf("benchgate: -current is required")
	}
	width := *gomax
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	cfgData, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	var cfg Config
	if err := json.Unmarshal(cfgData, &cfg); err != nil {
		return fmt.Errorf("benchgate: %s: %w", *configPath, err)
	}
	baseline, err := readBenches(*baselinePath, width)
	if err != nil {
		return err
	}
	current, err := readBenches(*currentPath, width)
	if err != nil {
		return err
	}
	findings, err := gate(cfg, baseline, current, width)
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	var report strings.Builder
	pass := render(&report, findings)
	fmt.Print(report.String())
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(report.String()), 0o644); err != nil {
			return err
		}
	}
	if !pass {
		return fmt.Errorf("benchgate: regression detected")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
