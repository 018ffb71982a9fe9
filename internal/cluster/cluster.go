// Package cluster assembles modules into systems and provides presets for
// the four production machines of the paper's Table 2: Cab (LLNL, Intel
// Sandy Bridge), Vulcan (LLNL, IBM BlueGene/Q), Teller (SNL, AMD
// Piledriver) and HA8K (Kyushu University, Intel Ivy Bridge).
//
// Each preset carries a variability profile calibrated so the population
// statistics match the paper's measurements:
//
//   - Cab: ≈23% max CPU power increase across 2,386 sockets, no
//     performance variation (frequency-binned parts).
//   - Vulcan: ≈11% power variation across 48 node boards (measurement is
//     per 32-node board, so module-level spread partially averages out and
//     a per-board delivery factor dominates).
//   - Teller: ≈21% power and ≈17% performance variation across 64 sockets
//     with a *negative* slowdown/power correlation (AMD Turbo Core grants
//     leakier parts more frequency headroom).
//   - HA8K: module (CPU+DRAM) Vp ≈ 1.2–1.5 and DRAM Vp ≈ 2.8 across 1,920
//     modules.
package cluster

import (
	"fmt"
	"strings"

	"varpower/internal/faults"
	"varpower/internal/hw/cpufreq"
	"varpower/internal/hw/gpu"
	"varpower/internal/hw/module"
	"varpower/internal/hw/msr"
	"varpower/internal/hw/rapl"
	"varpower/internal/units"
	"varpower/internal/variability"
	"varpower/internal/xrand"
)

// Measurement names the power-measurement technique available on a system
// (Table 1).
type Measurement string

// Measurement techniques from Table 1.
const (
	MeasureRAPL Measurement = "RAPL"
	MeasurePI   Measurement = "PowerInsight"
	MeasureEMON Measurement = "BGQ EMON"
)

// SupportsCapping reports whether the technique can also *enforce* power
// limits; in the paper (and here) only RAPL can.
func (m Measurement) SupportsCapping() bool { return m == MeasureRAPL }

// Spec is a system description — one row of the paper's Table 2.
type Spec struct {
	Name string
	Site string

	Arch            *module.Arch
	Nodes           int
	ProcsPerNode    int
	MemoryPerNodeGB int

	Measurement Measurement

	// ModulesPerBoard is the power-measurement aggregation granularity for
	// EMON systems (32 compute cards per BG/Q node board); 1 elsewhere.
	ModulesPerBoard int

	// BoardFactorSigma is the per-board power-delivery variation (DCA/VRM
	// efficiency spread) applied on top of summed module power for
	// board-granularity systems.
	BoardFactorSigma float64

	// GPU, when non-nil, makes the system heterogeneous: every node also
	// carries GPU.PerNode accelerator boards of GPU.Arch. CPU-only presets
	// leave it nil.
	GPU *GPUClass
}

// GPUClass describes a system's accelerator population — a second device
// class budgeted alongside the CPU modules.
type GPUClass struct {
	Arch    *gpu.Arch
	PerNode int
}

// TotalModules returns Nodes × ProcsPerNode.
func (s Spec) TotalModules() int { return s.Nodes * s.ProcsPerNode }

// TotalGPUs returns Nodes × GPU.PerNode (0 on CPU-only systems).
func (s Spec) TotalGPUs() int {
	if s.GPU == nil {
		return 0
	}
	return s.Nodes * s.GPU.PerNode
}

// Hybrid reports whether the spec carries a GPU device class.
func (s Spec) Hybrid() bool { return s.GPU != nil && s.GPU.PerNode > 0 }

// System is an instantiated machine: a population of modules with their
// drawn variation factors plus the per-module control/measurement plumbing
// (MSR devices, RAPL controllers where supported, cpufreq governors).
//
// Per-module state is laid out struct-of-arrays: one value slice per
// component rather than one heap object per module per component, so a
// 100k-module system is four contiguous allocations instead of 400k. The
// slices are never reallocated or copied after New — accessors hand out
// stable interior pointers, and the contained mutexes are only ever used
// through those pointers.
type System struct {
	Spec Spec
	Seed uint64

	modules     []module.Module
	devices     []msr.Device
	controllers []rapl.Controller
	governors   []cpufreq.Governor
	// ladder is the architecture's P-state ladder, built once and shared by
	// every governor (read-only by contract).
	ladder  []units.Hertz
	control rapl.ControlModel
	faults  *faults.Injector

	// GPU device class (empty slices on CPU-only systems), laid out
	// struct-of-arrays like the module population.
	gpus  []gpu.Device
	gctls []gpu.Controller
}

// New instantiates count modules of the spec (count ≤ Spec.TotalModules;
// pass 0 for the full machine). Instantiation is deterministic in seed.
func New(spec Spec, count int, seed uint64) (*System, error) {
	if err := spec.Arch.Validate(); err != nil {
		return nil, err
	}
	total := spec.TotalModules()
	if count == 0 {
		count = total
	}
	if count < 1 || count > total {
		return nil, fmt.Errorf("cluster: %s has %d modules, cannot instantiate %d", spec.Name, total, count)
	}
	sys := &System{
		Spec:        spec,
		Seed:        seed,
		modules:     make([]module.Module, count),
		devices:     make([]msr.Device, count),
		controllers: make([]rapl.Controller, count),
		governors:   make([]cpufreq.Governor, count),
		ladder:      spec.Arch.PStates(),
		control:     rapl.DefaultControl,
	}
	if spec.Hybrid() {
		if err := spec.GPU.Arch.Validate(); err != nil {
			return nil, err
		}
		// The GPU population scales with the instantiated node count so a
		// partial instantiation keeps the preset's CPU:GPU ratio.
		nodes := (count + spec.ProcsPerNode - 1) / spec.ProcsPerNode
		g := nodes * spec.GPU.PerNode
		if max := spec.TotalGPUs(); g > max {
			g = max
		}
		sys.gpus = make([]gpu.Device, g)
		sys.gctls = make([]gpu.Controller, g)
	}
	sys.initModules()
	return sys, nil
}

// initModules (re)initialises every per-module component in place to its
// power-on state under the system's current control model. It writes every
// field of every device, controller and governor, which is what makes
// Reset bit-identical to a fresh Clone.
func (s *System) initModules() {
	tdp := float64(s.Spec.Arch.TDP)
	for i := range s.modules {
		s.modules[i].Init(i, s.Spec.Arch, s.Seed)
		s.devices[i].Init(tdp)
		s.controllers[i].Init(&s.modules[i], &s.devices[i], s.control, s.Seed)
		s.governors[i].Init(&s.modules[i], s.ladder)
	}
	for i := range s.gpus {
		s.gpus[i].Init(i, s.Spec.GPU.Arch, s.Seed)
		s.gctls[i].Init(&s.gpus[i], gpu.DefaultControl, s.Seed)
	}
}

// MustNew is New for presets known to be valid; it panics on error.
func MustNew(spec Spec, count int, seed uint64) *System {
	s, err := New(spec, count, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// NumModules returns the instantiated module count.
func (s *System) NumModules() int { return len(s.modules) }

// Module returns module id.
func (s *System) Module(id int) *module.Module { return &s.modules[id] }

// RAPL returns module id's RAPL controller. Callers must check
// Spec.Measurement.SupportsCapping before relying on enforcement; the
// controller exists on all systems (the MSR space exists) but on non-Intel
// presets it models nothing the real machine had.
func (s *System) RAPL(id int) *rapl.Controller { return &s.controllers[id] }

// Governor returns module id's cpufreq governor.
func (s *System) Governor(id int) *cpufreq.Governor { return &s.governors[id] }

// NumGPUs returns the instantiated GPU device count (0 on CPU-only
// systems).
func (s *System) NumGPUs() int { return len(s.gpus) }

// GPUCtl returns GPU device id's management controller.
func (s *System) GPUCtl(id int) *gpu.Controller { return &s.gctls[id] }

// GPUFaultOffset maps GPU device IDs into the fault plan's module-ID space:
// GPU device g answers to fault-plan module ID GPUFaultOffset()+g, after
// the CPU modules. Plans are generated against a concrete instantiation, so
// the offset tracks the instantiated (not nameplate) module count.
func (s *System) GPUFaultOffset() int { return len(s.modules) }

// gpuFaults adapts the shared injector to the GPU device-ID space.
type gpuFaults struct {
	in     *faults.Injector
	offset int
}

func (g gpuFaults) EffectiveCap(id int, w units.Watts) units.Watts {
	return g.in.EffectiveCap(id+g.offset, w)
}

func (g gpuFaults) SpuriousThrottle(id int) (float64, bool) {
	return g.in.SpuriousThrottle(id + g.offset)
}

// SetControlModel replaces every controller's RAPL control-imperfection
// model (used by ablation benchmarks), reinitialising each controller in
// place.
func (s *System) SetControlModel(c rapl.ControlModel) {
	s.control = c
	for i := range s.controllers {
		s.controllers[i].Init(&s.modules[i], &s.devices[i], c, s.Seed)
		if s.faults != nil {
			s.controllers[i].SetFaultModel(s.faults)
		}
	}
}

// ControlModel returns the RAPL control-imperfection model in force.
func (s *System) ControlModel() rapl.ControlModel { return s.control }

// InstallFaults attaches a fault injector to every module's measurement and
// control path: MSR energy-status reads go through the injector's per-device
// interceptor, and RAPL cap enforcement consults it for drift and spurious
// throttling. A nil injector detaches everything, restoring the exact
// pre-fault behaviour. The injector is stateless, so one instance is shared
// across all modules (and across clones — see Clone).
func (s *System) InstallFaults(in *faults.Injector) {
	s.faults = in
	for i := range s.modules {
		if in == nil {
			s.devices[i].SetReadInterceptor(nil)
			s.controllers[i].SetFaultModel(nil)
			continue
		}
		s.devices[i].SetReadInterceptor(in.Device(i))
		s.controllers[i].SetFaultModel(in)
	}
	for i := range s.gctls {
		if in == nil {
			s.gctls[i].SetFaultModel(nil)
			continue
		}
		s.gctls[i].SetFaultModel(gpuFaults{in: in, offset: s.GPUFaultOffset()})
	}
}

// Reset restores the system to the state a fresh Clone would have: every
// device, controller and governor is reinitialised in place (power-on
// registers, cleared energy extensions, unpinned clocks, detached
// listeners) and the control model and fault injector are reapplied. The
// modules themselves are immutable and keep their drawn factors. Because
// the component Init methods write every field, a Reset system measures
// bit-identically to a fresh Clone — the invariant that makes pooled
// replica reuse (internal/core ReplicaPool) invisible to results. Must not
// be called concurrently with a run on this system.
func (s *System) Reset() {
	tdp := float64(s.Spec.Arch.TDP)
	for i := range s.modules {
		s.devices[i].Init(tdp)
		s.controllers[i].Init(&s.modules[i], &s.devices[i], s.control, s.Seed)
		s.governors[i].Init(&s.modules[i], s.ladder)
	}
	for i := range s.gpus {
		s.gctls[i].Init(&s.gpus[i], gpu.DefaultControl, s.Seed)
	}
	if s.faults != nil {
		in := s.faults
		s.InstallFaults(in)
	}
}

// Faults returns the installed fault injector (nil when the system is
// healthy).
func (s *System) Faults() *faults.Injector { return s.faults }

// Clone instantiates an independent replica of the system: same spec, seed,
// module count and control model, but fresh MSR devices, controllers and
// governors. Because module factors, RAPL jitter and run noise all derive
// from (seed, moduleID, ...) keyed streams — never from device state — a
// replica measures byte-identically to the original, which is what lets the
// experiment engine fan work out across replicas without perturbing results
// (power limits and pinned frequencies are per-replica, so concurrent
// workers cannot clobber each other's operating points).
func (s *System) Clone() *System {
	out := MustNew(s.Spec, len(s.modules), s.Seed)
	if s.control != rapl.DefaultControl {
		out.SetControlModel(s.control)
	}
	if s.faults != nil {
		out.InstallFaults(s.faults)
	}
	return out
}

// AllocateFirst returns the first n module IDs — the dedicated-system
// allocation used for the paper's HA8K experiments.
func (s *System) AllocateFirst(n int) ([]int, error) {
	if n < 1 || n > len(s.modules) {
		return nil, fmt.Errorf("cluster: allocation of %d from %d modules", n, len(s.modules))
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids, nil
}

// BoardFactor returns the power-delivery factor of measurement board b
// (≈1, sigma Spec.BoardFactorSigma), deterministic in the system seed.
func (s *System) BoardFactor(b int) float64 {
	if s.Spec.BoardFactorSigma == 0 {
		return 1
	}
	rng := xrand.NewKeyed(s.Seed, 0x626f617264 /* "board" */, uint64(b))
	return 1 + rng.TruncNormal(0, s.Spec.BoardFactorSigma, -3.5, 3.5)
}

// --- Presets (Table 2) ------------------------------------------------------

// HA8K returns the Kyushu University HA8000 spec (Intel E5-2697v2 Ivy
// Bridge, 960 nodes × 2 sockets = 1,920 modules, RAPL): the system all the
// capping experiments run on.
func HA8K() Spec {
	return Spec{
		Name: "HA8K", Site: "Kyushu Univ. (QUARTETTO)",
		Arch: &module.Arch{
			Name:   "Intel E5-2697v2 Ivy Bridge",
			Vendor: "Intel", CoresPer: 12,
			FMin: units.GHz(1.2), FNom: units.GHz(2.7), FTurbo: units.GHz(3.0),
			PStateStep: units.MHz(100),
			TDP:        130, DramTDP: 62,
			UncappedCeiling: 100.9,
			IdlePower:       22,
			CliffExponent:   2.7,
			MemBW:           50e9,
			Variation: variability.Profile{
				LeakSigma: 0.13, DynSigma: 0.032, DramSigma: 0.15,
			},
		},
		Nodes: 960, ProcsPerNode: 2, MemoryPerNodeGB: 256,
		Measurement:     MeasureRAPL,
		ModulesPerBoard: 1,
	}
}

// Cab returns the LLNL Cab spec (Intel E5-2670 Sandy Bridge, 1,296 nodes ×
// 2 sockets, RAPL measurement; DRAM readings unavailable due to BIOS
// restrictions, which callers model by simply not reading DRAM).
func Cab() Spec {
	return Spec{
		Name: "Cab", Site: "LLNL",
		Arch: &module.Arch{
			Name:   "Intel E5-2670 Sandy Bridge",
			Vendor: "Intel", CoresPer: 8,
			FMin: units.GHz(1.2), FNom: units.GHz(2.6), FTurbo: units.GHz(3.0),
			PStateStep: units.MHz(100),
			TDP:        115, DramTDP: 48,
			UncappedCeiling: 105,
			IdlePower:       20,
			CliffExponent:   2.7,
			MemBW:           40e9,
			Variation: variability.Profile{
				LeakSigma: 0.14, DynSigma: 0.028, DramSigma: 0.14,
			},
		},
		Nodes: 1296, ProcsPerNode: 2, MemoryPerNodeGB: 32,
		Measurement:     MeasureRAPL,
		ModulesPerBoard: 1,
	}
}

// Vulcan returns the LLNL Vulcan spec (IBM PowerPC A2 BlueGene/Q, 24,576
// single-socket nodes, EMON measurement at 32-node board granularity).
// The A2 runs at a fixed 1.6 GHz — no DVFS, no capping.
func Vulcan() Spec {
	return Spec{
		Name: "BG/Q Vulcan", Site: "LLNL",
		Arch: &module.Arch{
			Name:   "IBM PowerPC A2",
			Vendor: "IBM", CoresPer: 16,
			FMin: units.GHz(1.6), FNom: units.GHz(1.6), FTurbo: units.GHz(1.6),
			PStateStep: units.MHz(100),
			TDP:        55, DramTDP: 20,
			UncappedCeiling: 60,
			IdlePower:       12,
			CliffExponent:   2.7,
			MemBW:           28e9,
			Variation: variability.Profile{
				LeakSigma: 0.09, DynSigma: 0.025, DramSigma: 0.12,
			},
		},
		Nodes: 24576, ProcsPerNode: 1, MemoryPerNodeGB: 16,
		Measurement:      MeasureEMON,
		ModulesPerBoard:  32,
		BoardFactorSigma: 0.028,
	}
}

// Teller returns the SNL Teller spec (AMD A10-5800K Piledriver, 104
// single-socket nodes, PowerInsight measurement). Turbo Core gives leakier
// parts more frequency headroom (TurboSpread/TurboLeakCorr), producing the
// paper's observed performance variation and negative slowdown/power
// correlation.
func Teller() Spec {
	return Spec{
		Name: "Teller", Site: "SNL",
		Arch: &module.Arch{
			Name:   "AMD A10-5800K Piledriver",
			Vendor: "AMD", CoresPer: 4,
			FMin: units.GHz(1.4), FNom: units.GHz(3.8), FTurbo: units.GHz(4.2),
			PStateStep: units.MHz(100),
			TDP:        100, DramTDP: 30,
			UncappedCeiling: 98,
			IdlePower:       18,
			CliffExponent:   2.7,
			MemBW:           20e9,
			Variation: variability.Profile{
				LeakSigma: 0.10, DynSigma: 0.025, DramSigma: 0.16,
				TurboSpread: 0.11, TurboLeakCorr: 0.75,
			},
		},
		Nodes: 104, ProcsPerNode: 1, MemoryPerNodeGB: 16,
		Measurement:     MeasurePI,
		ModulesPerBoard: 1,
	}
}

// --- Hybrid presets (CPU + GPU device classes) ------------------------------

// K20XArch returns a Kepler K20X-class accelerator: 14 SMX, 732 MHz base,
// 235 W board limit. Variation sigmas follow the population spreads of
// arXiv 2208.11035 scaled to Kepler-era parts: leakage dominates, device
// memory varies widely, and GPU Boost gives leakier parts slightly more
// clock headroom.
func K20XArch() *gpu.Arch {
	return &gpu.Arch{
		Name:   "NVIDIA K20X",
		Vendor: "NVIDIA", SMs: 14,
		ClockMin: units.MHz(324), ClockNom: units.MHz(732), ClockBoost: units.MHz(784),
		ClockStep:     units.MHz(26),
		TDP:           235,
		MinLimit:      110,
		IdlePower:     25,
		CliffExponent: 2.7,
		MemBW:         250e9,
		Variation: variability.Profile{
			LeakSigma: 0.11, DynSigma: 0.035, DramSigma: 0.13,
			TurboSpread: 0.04, TurboLeakCorr: 0.6,
		},
	}
}

// V100Arch returns a Volta V100-class accelerator: 80 SMs, 1290 MHz base,
// 300 W board limit. Sigmas track the ~22% power / ~8% performance spread
// arXiv 2208.11035 measures on production V100 fleets.
func V100Arch() *gpu.Arch {
	return &gpu.Arch{
		Name:   "NVIDIA V100",
		Vendor: "NVIDIA", SMs: 80,
		ClockMin: units.MHz(607), ClockNom: units.MHz(1290), ClockBoost: units.MHz(1530),
		ClockStep:     units.MHz(15),
		TDP:           300,
		MinLimit:      150,
		IdlePower:     38,
		CliffExponent: 2.7,
		MemBW:         900e9,
		Variation: variability.Profile{
			LeakSigma: 0.12, DynSigma: 0.04, DramSigma: 0.11,
			TurboSpread: 0.05, TurboLeakCorr: 0.6,
		},
	}
}

// HA8KHybrid returns a TSUBAME-style accelerated variant of HA8K: the same
// Ivy Bridge CPU population with four K20X boards per node. The GPU class
// dominates node power (4×235 W vs 2×130 W), which is what makes naive
// uniform class splits starve it — the hetero experiment's headline result.
func HA8KHybrid() Spec {
	s := HA8K()
	s.Name = "HA8K-hybrid"
	s.Nodes = 256
	s.GPU = &GPUClass{Arch: K20XArch(), PerNode: 4}
	return s
}

// SummitLite returns a Summit-flavoured hybrid preset: POWER9-class CPU
// sockets with six V100 boards per node. Capping is modelled through the
// same RAPL emulation (on the real machine OCC plays that role).
func SummitLite() Spec {
	return Spec{
		Name: "Summit-lite", Site: "ORNL (scaled)",
		Arch: &module.Arch{
			Name:   "IBM POWER9",
			Vendor: "IBM", CoresPer: 22,
			FMin: units.GHz(2.0), FNom: units.GHz(3.07), FTurbo: units.GHz(3.45),
			PStateStep: units.MHz(100),
			TDP:        190, DramTDP: 72,
			UncappedCeiling: 170,
			IdlePower:       32,
			CliffExponent:   2.7,
			MemBW:           120e9,
			Variation: variability.Profile{
				LeakSigma: 0.11, DynSigma: 0.03, DramSigma: 0.13,
			},
		},
		Nodes: 128, ProcsPerNode: 2, MemoryPerNodeGB: 512,
		Measurement:     MeasureRAPL,
		ModulesPerBoard: 1,
		GPU:             &GPUClass{Arch: V100Arch(), PerNode: 6},
	}
}

// Presets returns the four Table-2 systems in the paper's order. Hybrid
// presets are deliberately excluded — they are opt-in via HybridPresets /
// AllPresets / SpecByName, so consumers that iterate "the paper's machines"
// (varpowerd's default system set, the Table-2 render) keep their exact
// behaviour.
func Presets() []Spec {
	return []Spec{Cab(), Vulcan(), Teller(), HA8K()}
}

// HybridPresets returns the heterogeneous CPU+GPU presets.
func HybridPresets() []Spec {
	return []Spec{HA8KHybrid(), SummitLite()}
}

// AllPresets returns every named preset, Table-2 machines first.
func AllPresets() []Spec {
	return append(Presets(), HybridPresets()...)
}

// aliases maps convenience names to canonical preset names.
var aliases = map[string]string{
	"vulcan": "BG/Q Vulcan",
	"summit": "Summit-lite",
	"hybrid": "HA8K-hybrid",
}

// PresetNames returns every resolvable preset name, canonical names first
// and aliases in parenthesised form — the vocabulary SpecByName's error
// reports.
func PresetNames() []string {
	var names []string
	for _, s := range AllPresets() {
		n := s.Name
		for alias, canon := range aliases {
			if canon == s.Name {
				n = fmt.Sprintf("%s (alias %q)", s.Name, alias)
			}
		}
		names = append(names, n)
	}
	return names
}

// SpecByName resolves a preset by name, case-insensitively; "BG/Q Vulcan"
// also answers to the bare "vulcan", "Summit-lite" to "summit" and
// "HA8K-hybrid" to "hybrid". This is the lookup API consumers (the
// varpowerd control plane, scripts) use, so unknown names enumerate the
// full valid vocabulary — including the hybrid presets — rather than just
// rejecting.
func SpecByName(name string) (Spec, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := aliases[want]; ok {
		want = strings.ToLower(canon)
	}
	for _, s := range AllPresets() {
		if strings.ToLower(s.Name) == want {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("cluster: unknown system %q (have %s)", name, strings.Join(PresetNames(), ", "))
}
