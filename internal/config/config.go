// Package config serialises system descriptions as JSON, so the tooling is
// not limited to the built-in Table-2 machines: a site can describe its own
// cluster (TDPs, frequency range, variation profile measured from its own
// PVT, an optional GPU device class) and run the same budgeting pipeline
// over it (pvtgen -system-file).
package config

import (
	"encoding/json"
	"fmt"
	"io"

	"varpower/internal/cluster"
	"varpower/internal/hw/gpu"
	"varpower/internal/hw/module"
	"varpower/internal/units"
	"varpower/internal/variability"
)

// SystemJSON is the on-disk form of a cluster.Spec.
type SystemJSON struct {
	Name            string  `json:"name"`
	Site            string  `json:"site"`
	ArchName        string  `json:"arch"`
	Vendor          string  `json:"vendor"`
	CoresPerProc    int     `json:"cores_per_proc"`
	FMinGHz         float64 `json:"fmin_ghz"`
	FNomGHz         float64 `json:"fnom_ghz"`
	FTurboGHz       float64 `json:"fturbo_ghz"`
	PStateStepMHz   float64 `json:"pstate_step_mhz"`
	TDPWatts        float64 `json:"tdp_w"`
	DramTDPWatts    float64 `json:"dram_tdp_w"`
	CeilingWatts    float64 `json:"uncapped_ceiling_w"`
	IdleWatts       float64 `json:"idle_w"`
	CliffExponent   float64 `json:"cliff_exponent"`
	MemBWGBs        float64 `json:"mem_bw_gbs"`
	Nodes           int     `json:"nodes"`
	ProcsPerNode    int     `json:"procs_per_node"`
	MemoryPerNodeGB int     `json:"memory_per_node_gb"`
	Measurement     string  `json:"measurement"`
	ModulesPerBoard int     `json:"modules_per_board,omitempty"`
	BoardSigma      float64 `json:"board_factor_sigma,omitempty"`

	Variation VariationJSON `json:"variation"`

	// GPU, when present, makes the described system heterogeneous: every
	// node carries PerNode accelerator boards of this class, budgeted
	// alongside the CPU modules (see cluster.GPUClass).
	GPU *GPUJSON `json:"gpu,omitempty"`
}

// GPUJSON is the on-disk form of a cluster.GPUClass.
type GPUJSON struct {
	ArchName      string  `json:"arch"`
	Vendor        string  `json:"vendor"`
	SMs           int     `json:"sms,omitempty"`
	ClockMinMHz   float64 `json:"clock_min_mhz"`
	ClockNomMHz   float64 `json:"clock_nom_mhz"`
	ClockBoostMHz float64 `json:"clock_boost_mhz"`
	ClockStepMHz  float64 `json:"clock_step_mhz"`
	TDPWatts      float64 `json:"tdp_w"`
	MinLimitWatts float64 `json:"min_limit_w"`
	IdleWatts     float64 `json:"idle_w"`
	CliffExponent float64 `json:"cliff_exponent"`
	MemBWGBs      float64 `json:"mem_bw_gbs"`
	PerNode       int     `json:"per_node"`

	Variation VariationJSON `json:"variation"`
}

// VariationJSON is the on-disk form of a variability.Profile.
type VariationJSON struct {
	LeakSigma     float64 `json:"leak_sigma"`
	DynSigma      float64 `json:"dyn_sigma"`
	DramSigma     float64 `json:"dram_sigma"`
	TurboSpread   float64 `json:"turbo_spread,omitempty"`
	TurboLeakCorr float64 `json:"turbo_leak_corr,omitempty"`
}

// FromSpec converts a cluster.Spec for serialisation.
func FromSpec(s cluster.Spec) SystemJSON {
	a := s.Arch
	var gj *GPUJSON
	if s.GPU != nil {
		g := s.GPU.Arch
		gj = &GPUJSON{
			ArchName: g.Name, Vendor: g.Vendor, SMs: g.SMs,
			ClockMinMHz: g.ClockMin.MHz(), ClockNomMHz: g.ClockNom.MHz(),
			ClockBoostMHz: g.ClockBoost.MHz(), ClockStepMHz: g.ClockStep.MHz(),
			TDPWatts: float64(g.TDP), MinLimitWatts: float64(g.MinLimit),
			IdleWatts:     float64(g.IdlePower),
			CliffExponent: g.CliffExponent, MemBWGBs: g.MemBW / 1e9,
			PerNode: s.GPU.PerNode,
			Variation: VariationJSON{
				LeakSigma: g.Variation.LeakSigma, DynSigma: g.Variation.DynSigma,
				DramSigma: g.Variation.DramSigma, TurboSpread: g.Variation.TurboSpread,
				TurboLeakCorr: g.Variation.TurboLeakCorr,
			},
		}
	}
	return SystemJSON{
		Name: s.Name, Site: s.Site,
		ArchName: a.Name, Vendor: a.Vendor, CoresPerProc: a.CoresPer,
		FMinGHz: a.FMin.GHz(), FNomGHz: a.FNom.GHz(), FTurboGHz: a.FTurbo.GHz(),
		PStateStepMHz: a.PStateStep.MHz(),
		TDPWatts:      float64(a.TDP), DramTDPWatts: float64(a.DramTDP),
		CeilingWatts: float64(a.UncappedCeiling), IdleWatts: float64(a.IdlePower),
		CliffExponent: a.CliffExponent, MemBWGBs: a.MemBW / 1e9,
		Nodes: s.Nodes, ProcsPerNode: s.ProcsPerNode, MemoryPerNodeGB: s.MemoryPerNodeGB,
		Measurement: string(s.Measurement), ModulesPerBoard: s.ModulesPerBoard,
		BoardSigma: s.BoardFactorSigma,
		Variation: VariationJSON{
			LeakSigma: a.Variation.LeakSigma, DynSigma: a.Variation.DynSigma,
			DramSigma: a.Variation.DramSigma, TurboSpread: a.Variation.TurboSpread,
			TurboLeakCorr: a.Variation.TurboLeakCorr,
		},
		GPU: gj,
	}
}

// Spec converts back to a validated cluster.Spec.
func (j SystemJSON) Spec() (cluster.Spec, error) {
	spec := cluster.Spec{
		Name: j.Name, Site: j.Site,
		Arch: &module.Arch{
			Name: j.ArchName, Vendor: j.Vendor, CoresPer: j.CoresPerProc,
			FMin: units.GHz(j.FMinGHz), FNom: units.GHz(j.FNomGHz), FTurbo: units.GHz(j.FTurboGHz),
			PStateStep:      units.MHz(j.PStateStepMHz),
			TDP:             units.Watts(j.TDPWatts),
			DramTDP:         units.Watts(j.DramTDPWatts),
			UncappedCeiling: units.Watts(j.CeilingWatts),
			IdlePower:       units.Watts(j.IdleWatts),
			CliffExponent:   j.CliffExponent,
			MemBW:           j.MemBWGBs * 1e9,
			Variation: variability.Profile{
				LeakSigma: j.Variation.LeakSigma, DynSigma: j.Variation.DynSigma,
				DramSigma: j.Variation.DramSigma, TurboSpread: j.Variation.TurboSpread,
				TurboLeakCorr: j.Variation.TurboLeakCorr,
			},
		},
		Nodes: j.Nodes, ProcsPerNode: j.ProcsPerNode, MemoryPerNodeGB: j.MemoryPerNodeGB,
		Measurement:      cluster.Measurement(j.Measurement),
		ModulesPerBoard:  j.ModulesPerBoard,
		BoardFactorSigma: j.BoardSigma,
	}
	if spec.ModulesPerBoard == 0 {
		spec.ModulesPerBoard = 1
	}
	switch spec.Measurement {
	case cluster.MeasureRAPL, cluster.MeasurePI, cluster.MeasureEMON:
	default:
		return cluster.Spec{}, fmt.Errorf("config: unknown measurement technique %q", j.Measurement)
	}
	if spec.Nodes < 1 || spec.ProcsPerNode < 1 {
		return cluster.Spec{}, fmt.Errorf("config: system %q has no modules", j.Name)
	}
	if err := spec.Arch.Validate(); err != nil {
		return cluster.Spec{}, err
	}
	if j.GPU != nil {
		g := j.GPU
		if g.PerNode < 1 || g.PerNode > 64 {
			return cluster.Spec{}, fmt.Errorf("config: system %q declares a GPU class with %d boards per node (want 1..64)", j.Name, g.PerNode)
		}
		spec.GPU = &cluster.GPUClass{
			Arch: &gpu.Arch{
				Name: g.ArchName, Vendor: g.Vendor, SMs: g.SMs,
				ClockMin: units.MHz(g.ClockMinMHz), ClockNom: units.MHz(g.ClockNomMHz),
				ClockBoost: units.MHz(g.ClockBoostMHz), ClockStep: units.MHz(g.ClockStepMHz),
				TDP: units.Watts(g.TDPWatts), MinLimit: units.Watts(g.MinLimitWatts),
				IdlePower:     units.Watts(g.IdleWatts),
				CliffExponent: g.CliffExponent,
				MemBW:         g.MemBWGBs * 1e9,
				Variation: variability.Profile{
					LeakSigma: g.Variation.LeakSigma, DynSigma: g.Variation.DynSigma,
					DramSigma: g.Variation.DramSigma, TurboSpread: g.Variation.TurboSpread,
					TurboLeakCorr: g.Variation.TurboLeakCorr,
				},
			},
			PerNode: g.PerNode,
		}
		if err := spec.GPU.Arch.Validate(); err != nil {
			return cluster.Spec{}, err
		}
	}
	return spec, nil
}

// SaveSystem writes a spec as indented JSON.
func SaveSystem(w io.Writer, s cluster.Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(FromSpec(s))
}

// LoadSystem reads and validates a spec.
func LoadSystem(r io.Reader) (cluster.Spec, error) {
	var j SystemJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return cluster.Spec{}, fmt.Errorf("config: load system: %w", err)
	}
	return j.Spec()
}
