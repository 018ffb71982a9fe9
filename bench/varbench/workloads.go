package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"varpower/internal/cluster"
	"varpower/internal/service"
)

// Workloads, in the order the benchmark reports them. Each exists to drive
// one set of layers and bypass another (see bench/README.md).
var workloadNames = []string{"hot-direct", "hot-routed", "sweep-mixed", "churn", "eval-grid"}

// servingModules is varpowerd's default per-system module count; every
// served workload runs against the daemon's defaults.
const servingModules = 192

// The request space. BG/Q Vulcan is loaded by the daemon like every preset,
// but it has no DVFS range (fmin = fmax), so every calibrated solve on it is
// refused; the solve streams use the three presets that can answer.
var (
	cpuPresets = []string{"HA8K", "Cab", "Teller"}
	benches    = []string{"MHD", "*DGEMM"}
	schemes    = []string{"VaPc", "VaFs"}
)

const hybridPreset = "HA8K-hybrid"

// Budgets per (preset, benchmark, scheme): the hot key set has
// 3 × 2 × 2 × 21 = 252 keys, churn's 3 × 2 × 2 × 5 = 60. Every combination
// gets the same number, so the mix of body sizes (Teller loads 104 modules,
// the others 192) is the same for every seed.
const (
	hotBudgets   = 21
	churnBudgets = 5
)

// opKind is what a scheduled request does.
type opKind uint8

const (
	opSolve opKind = iota
	opRecal
	opJob
)

// op is one scheduled request. body is encoded when the op is generated, so
// no JSON encoding happens while the clock runs.
type op struct {
	kind   opKind
	key    int // index into plan.keys for repeated-key solves; -1 otherwise
	system string
	solve  service.SolveRequest
	recal  service.RecalibrateRequest
	body   []byte
}

func (o *op) path() string {
	switch o.kind {
	case opRecal:
		return "/v1/recalibrate"
	case opJob:
		return "/v1/jobs"
	}
	return "/v1/solve"
}

func (o *op) wantStatus() int {
	if o.kind == opJob {
		return http.StatusAccepted
	}
	return http.StatusOK
}

// plan is a served workload's generated input: the keys primed before the
// clock starts and a deterministic op stream.
type plan struct {
	rate   float64 // scheduled requests per second
	period int     // the stream's mix of op kinds repeats every period ops
	routed bool
	keys   []service.SolveRequest // repeated keys, primed and reference-checked
	warm   []service.SolveRequest // extra priming (calibration caches, lazy systems)
	next   func(i int) op         // the i-th op of the stream
	taken  int                    // ops generated so far
}

// wholePeriods rounds n up to a whole number of the stream's periods, so a
// window of that many ops carries the stream's exact mix.
func (p *plan) wholePeriods(n int) int {
	return max(1, (n+p.period-1)/p.period) * p.period
}

// take generates the stream's next n ops, with due times relative to the
// first of them. A fresh plan from the same seed yields the same stream.
func (p *plan) take(n int) ([]op, []time.Duration) {
	out := make([]op, n)
	due := make([]time.Duration, n)
	for i := range out {
		out[i] = p.next(p.taken)
		p.taken++
		due[i] = time.Duration(float64(i) / p.rate * float64(time.Second))
	}
	return out, due
}

// capacities holds, per preset, the watts at which every loaded module (and
// GPU board) runs at its TDP — budgets are drawn as shares of it, so every
// preset sees the same spread of tight and loose budgets.
type capacities map[string]float64

func newCapacities() (capacities, error) {
	c := make(capacities)
	for _, name := range append(append([]string{}, cpuPresets...), hybridPreset) {
		spec, err := cluster.SpecByName(name)
		if err != nil {
			return nil, err
		}
		sys, err := cluster.New(spec, min(servingModules, spec.TotalModules()), 0x5c15)
		if err != nil {
			return nil, err
		}
		w := float64(sys.NumModules()) * float64(spec.Arch.TDP+spec.Arch.DramTDP)
		if spec.Hybrid() {
			w += float64(sys.NumGPUs()) * float64(spec.GPU.Arch.TDP)
		}
		c[name] = w
	}
	return c, nil
}

// budget converts a share of the preset's capacity into watts, rounded to
// 0.1 W so it survives the cache key's formatting unchanged.
func (c capacities) budget(preset string, share float64) float64 {
	return math.Round(c[preset]*share*10) / 10
}

// Budget shares: the streams stay inside [0.40, 0.90]; priming uses 0.95 so
// a primed key is never one the stream later counts as unseen.
const (
	shareLo, shareHi = 0.40, 0.90
	primeShare       = 0.95
)

func solveOp(key int, req service.SolveRequest) op {
	return op{kind: opSolve, key: key, system: req.System, solve: req, body: mustJSON(req)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are encoded
	}
	return b
}

// repeatedKeys draws a repeated-key set: every (preset, benchmark, scheme)
// with perCombo distinct budgets.
func repeatedKeys(rng *rand.Rand, c capacities, perCombo int) []service.SolveRequest {
	var keys []service.SolveRequest
	for _, p := range cpuPresets {
		for _, b := range benches {
			for _, s := range schemes {
				seen := make(map[float64]bool)
				for len(seen) < perCombo {
					w := c.budget(p, shareLo+(shareHi-shareLo)*rng.Float64())
					if seen[w] {
						continue
					}
					seen[w] = true
					keys = append(keys, service.SolveRequest{System: p, Workload: b, Scheme: s, BudgetWatts: w})
				}
			}
		}
	}
	return keys
}

// newPlan generates a served workload's inputs from the seed.
func newPlan(name string, seed uint64, c capacities) (*plan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x76617262656e6368 /* "varbench" */))
	switch name {
	case "hot-direct", "hot-routed":
		keys := repeatedKeys(rng, c, hotBudgets)
		p := &plan{rate: 4000, period: 1, keys: keys}
		if name == "hot-routed" {
			// Three processes share two cores and the routed path saturates
			// near 4k rps; 1000 keeps it at about a quarter of that, where
			// hot-direct runs too, so queueing does not amplify noise.
			p.rate, p.routed = 1000, true
		}
		p.next = func(int) op {
			k := rng.IntN(len(keys))
			return solveOp(k, keys[k])
		}
		return p, nil

	case "sweep-mixed":
		// At 1000 rps runs split into two latency modes about 40% apart,
		// most likely on whether the cores stay awake between requests; at
		// 500 rps they do not.
		p := &plan{rate: 500, period: 64}
		// Warm the calibration cache for every (preset, benchmark, scheme)
		// and build the lazily registered hybrid system, so the stream's
		// CPU solves miss the solve cache but hit the PMT cache.
		for _, pr := range append(append([]string{}, cpuPresets...), hybridPreset) {
			for _, b := range benches {
				for _, s := range schemes {
					p.warm = append(p.warm, service.SolveRequest{System: pr, Workload: b, Scheme: s, BudgetWatts: c.budget(pr, primeShare)})
				}
			}
		}
		// The preset of each op, and which ops carry a fresh seed, are
		// fixed by position, so that every seed's stream has the same mix
		// of costs (a Teller calibration covers 104 modules, the others
		// 192); the seed draws everything else.
		seen := make(map[service.SolveRequest]bool)
		p.next = func(i int) op {
			for {
				req := service.SolveRequest{
					System:   cpuPresets[i%len(cpuPresets)],
					Workload: benches[rng.IntN(len(benches))],
					Scheme:   schemes[rng.IntN(len(schemes))],
				}
				if i%8 == 4 {
					req.System = hybridPreset // the full hierarchical solve every time
				}
				req.BudgetWatts = c.budget(req.System, shareLo+(shareHi-shareLo)*rng.Float64())
				if i%64 == 32 {
					// A foreign seed: a new cluster, its install-time PVT
					// and a PMT calibration, all on the request path.
					req.Seed = rng.Uint64()>>1 | 1
				}
				if !seen[req] {
					seen[req] = true
					return solveOp(-1, req)
				}
			}
		}
		return p, nil

	case "churn":
		keys := repeatedKeys(rng, c, churnBudgets)
		p := &plan{rate: 2000, period: 500, keys: keys}
		p.next = func(i int) op {
			switch {
			case i%500 == 250:
				// 4/s: recalibrate two modules of the next preset in turn,
				// which bumps its PVT generation.
				sys := cpuPresets[(i/500)%len(cpuPresets)]
				n := min(servingModules, mustSpec(sys).TotalModules())
				a := rng.IntN(n)
				b := (a + 1 + rng.IntN(n-1)) % n
				req := service.RecalibrateRequest{System: sys, Modules: []int{min(a, b), max(a, b)}}
				return op{kind: opRecal, key: -1, system: sys, recal: req, body: mustJSON(req)}
			case i%50 == 25:
				// 40/s: a full simulated run on a 16-module allocation,
				// cycling through every (preset, benchmark) so that each
				// seed runs the same jobs. VaFs enforces by frequency, which
				// every preset supports.
				j := i / 50
				sys := cpuPresets[j%len(cpuPresets)]
				req := service.SolveRequest{System: sys, Workload: benches[(j/len(cpuPresets))%len(benches)], Scheme: "VaFs",
					Modules: 16, BudgetWatts: c.budget(sys, 0.7*16/float64(min(servingModules, mustSpec(sys).TotalModules())))}
				return op{kind: opJob, key: -1, system: sys, solve: req, body: mustJSON(req)}
			}
			k := rng.IntN(len(keys))
			return solveOp(k, keys[k])
		}
		return p, nil
	}
	return nil, fmt.Errorf("no served workload %q", name)
}

func mustSpec(name string) cluster.Spec {
	spec, err := cluster.SpecByName(name)
	if err != nil {
		panic(err) // only the preset names above are looked up
	}
	return spec
}
